package network_test

import (
	"fmt"
	"math"
	"testing"

	"multitree/internal/algorithms"
	"multitree/internal/collective"
	"multitree/internal/core"
	"multitree/internal/dbtree"
	"multitree/internal/network"
	"multitree/internal/ring"
	"multitree/internal/topology"
	"multitree/internal/topospec"
)

func torus4x4() *topology.Topology {
	return topology.Torus(4, 4, topology.DefaultLinkConfig())
}

// TestFluidSingleTransfer checks the analytic time of one uncontended
// transfer: serialization + path latency.
func TestFluidSingleTransfer(t *testing.T) {
	topo := torus4x4()
	s := collective.NewSchedule("unit", topo, 4096, 1)
	s.Add(collective.Transfer{Src: 0, Dst: 1, Op: collective.Gather, Flow: 0, Step: 1}, nil, nil)
	cfg := network.DefaultConfig()
	cfg.Lockstep = false
	res, err := network.SimulateFluid(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wire := cfg.WireBytes(4096 * collective.WordSize)
	want := float64(wire)/16 + 150
	if got := float64(res.Cycles); math.Abs(got-want) > 2 {
		t.Errorf("cycles = %v, want ~%v (wire %d)", got, want, wire)
	}
	pres, err := network.SimulatePackets(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Packet engine pipelines packets, so the last packet's arrival is
	// serialization of the whole stream + latency, within one packet time.
	if diff := math.Abs(float64(pres.Cycles) - want); diff > 64 {
		t.Errorf("packet cycles = %d, want ~%v", pres.Cycles, want)
	}
}

// TestFluidContention checks max-min sharing: two flows over one link take
// twice as long.
func TestFluidContention(t *testing.T) {
	topo := torus4x4()
	s := collective.NewSchedule("unit", topo, 8192, 2)
	// Both flows use link 0->1 by routing 0->1 (x-direction single hop).
	s.Add(collective.Transfer{Src: 0, Dst: 1, Op: collective.Gather, Flow: 0, Step: 1}, nil, nil)
	s.Add(collective.Transfer{Src: 0, Dst: 1, Op: collective.Gather, Flow: 1, Step: 1}, nil, nil)
	cfg := network.DefaultConfig()
	cfg.Lockstep = false
	res, err := network.SimulateFluid(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wire := cfg.WireBytes(s.Flows[0].Bytes())
	want := 2*float64(wire)/16 + 150
	if got := float64(res.Cycles); math.Abs(got-want) > 2 {
		t.Errorf("cycles = %v, want ~%v", got, want)
	}
}

// TestEnginesAgree cross-validates the fluid engine against the
// packet-level reference across algorithms and sizes: completion times
// must agree within 15%.
func TestEnginesAgree(t *testing.T) {
	topo := torus4x4()
	elemsList := []int{1 << 10, 1 << 14}
	for _, elems := range elemsList {
		schedules := []*collective.Schedule{ring.Build(topo, elems)}
		if s, err := dbtree.Build(topo, elems, 4); err == nil {
			schedules = append(schedules, s)
		}
		if s, err := core.Build(topo, elems, core.Options{}); err == nil {
			schedules = append(schedules, s)
		}
		for _, s := range schedules {
			for _, cfg := range []network.Config{network.DefaultConfig(), network.MessageConfig()} {
				name := fmt.Sprintf("%s/%delems/msg=%v", s.Algorithm, elems, cfg.MessageBased)
				t.Run(name, func(t *testing.T) {
					fres, err := network.SimulateFluid(s, cfg)
					if err != nil {
						t.Fatal(err)
					}
					pres, err := network.SimulatePackets(s, cfg)
					if err != nil {
						t.Fatal(err)
					}
					f, p := float64(fres.Cycles), float64(pres.Cycles)
					if rel := math.Abs(f-p) / p; rel > 0.15 {
						t.Errorf("fluid %.0f vs packet %.0f cycles: %.1f%% apart", f, p, 100*rel)
					}
				})
			}
		}
	}
}

// TestEnginesExact tightens TestEnginesAgree where the engines coincide:
// on contention-free schedules of the paper's fabrics both engines charge
// the same serialization and latency, so completion time and every
// transfer's delivery time must be equal, not just within 15%.
func TestEnginesExact(t *testing.T) {
	type fabric struct {
		spec  string
		algs  []string
		sizes []int64
	}
	sizes := []int64{1 << 10, 4 << 10, 64 << 10, 256 << 10}
	var cases []fabric
	for _, spec := range []string{"torus-4x4", "torus-8x8"} {
		cases = append(cases, fabric{spec, []string{"ring", "2d-ring", "multitree"}, sizes})
	}
	for _, spec := range []string{"mesh-4x4", "mesh-8x8"} {
		cases = append(cases, fabric{spec, []string{"multitree"}, sizes})
	}
	for _, spec := range []string{"torus-4x4", "torus-8x8", "mesh-4x4", "mesh-8x8"} {
		cases = append(cases, fabric{spec, []string{"hdrm"}, sizes[:1]})
	}
	for _, c := range cases {
		topo, err := topospec.Parse(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range c.algs {
			for _, size := range c.sizes {
				s, err := algorithms.Build(topo, alg, int(size/collective.WordSize), algorithms.Options{})
				if err != nil {
					t.Fatal(err)
				}
				for _, cfg := range []network.Config{network.DefaultConfig(), network.MessageConfig()} {
					t.Run(fmt.Sprintf("%s/%s/%dKiB/msg=%v", c.spec, alg, size>>10, cfg.MessageBased), func(t *testing.T) {
						fres, err := network.SimulateFluid(s, cfg)
						if err != nil {
							t.Fatal(err)
						}
						pres, err := network.SimulatePackets(s, cfg)
						if err != nil {
							t.Fatal(err)
						}
						if fres.Cycles != pres.Cycles {
							t.Errorf("fluid %d vs packet %d cycles", fres.Cycles, pres.Cycles)
						}
						for i := range fres.TransferDone {
							if fres.TransferDone[i] != pres.TransferDone[i] {
								t.Fatalf("transfer %d delivered at %d (fluid) vs %d (packet)",
									i, fres.TransferDone[i], pres.TransferDone[i])
							}
						}
					})
				}
			}
		}
	}
}

// TestEngineGaps pins, as ±2% bands on packet/fluid cycles, the runs
// where the engines disagree by more than rounding: DBTree, whose gap
// changes sign with size (the packet engine is slower at 4 KiB and
// faster at 64-256 KiB), 2d-ring on a mesh, and MultiTree on switch
// fabrics. A drift in either engine moves a ratio out of its band.
func TestEngineGaps(t *testing.T) {
	for _, c := range []struct {
		spec, alg string
		size      int
		ratio     float64 // packet cycles / fluid cycles
	}{
		{"fattree-16", "dbtree", 256 << 10, 57015.0 / 71137},
		{"torus-8x8", "dbtree", 64 << 10, 20792.0 / 22657},
		{"torus-4x4", "dbtree", 4 << 10, 6114.0 / 5955},
		{"mesh-8x8", "2d-ring", 64 << 10, 26815.0 / 19572},
		{"mesh-8x8", "2d-ring", 256 << 10, 61681.0 / 40702},
		{"fattree-16", "multitree", 64 << 10, 9462.0 / 9060},
		{"bigraph-32", "multitree", 256 << 10, 41138.0 / 39578},
	} {
		t.Run(fmt.Sprintf("%s/%s/%dKiB", c.spec, c.alg, c.size>>10), func(t *testing.T) {
			topo, err := topospec.Parse(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			s, err := algorithms.Build(topo, c.alg, c.size/collective.WordSize, algorithms.Options{})
			if err != nil {
				t.Fatal(err)
			}
			fres, err := network.SimulateFluid(s, network.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			pres, err := network.SimulatePackets(s, network.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			got := float64(pres.Cycles) / float64(fres.Cycles)
			if math.Abs(got/c.ratio-1) > 0.02 {
				t.Errorf("packet %d / fluid %d cycles = %.3f, want %.3f ± 2%%",
					pres.Cycles, fres.Cycles, got, c.ratio)
			}
		})
	}
}

// TestMessageFlowControlGain checks the §IV-B claim end to end: with
// 256 B payloads and 16 B flits, message-based flow control improves
// bandwidth-bound all-reduce time by about 6%.
func TestMessageFlowControlGain(t *testing.T) {
	topo := torus4x4()
	s, err := core.Build(topo, 1<<20, core.Options{}) // 4 MiB: bandwidth-bound
	if err != nil {
		t.Fatal(err)
	}
	base, err := network.SimulateFluid(s, network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	msg, err := network.SimulateFluid(s, network.MessageConfig())
	if err != nil {
		t.Fatal(err)
	}
	gain := float64(base.Cycles)/float64(msg.Cycles) - 1
	if gain < 0.04 || gain > 0.08 {
		t.Errorf("message-based gain = %.2f%%, want ~6%%", 100*gain)
	}
}

// TestHeadFlitOverhead pins Fig. 2's endpoints: 25% at 64 B payloads, 6.25%
// at 256 B.
func TestHeadFlitOverhead(t *testing.T) {
	if got := network.HeadFlitOverhead(64, 16); got != 0.25 {
		t.Errorf("overhead(64) = %v, want 0.25", got)
	}
	if got := network.HeadFlitOverhead(256, 16); got != 0.0625 {
		t.Errorf("overhead(256) = %v, want 0.0625", got)
	}
}

// TestWireBytesMatchesFlitize checks the closed-form wire size against the
// explicit flit framing for both flow controls.
func TestWireBytesMatchesFlitize(t *testing.T) {
	for _, cfg := range []network.Config{network.DefaultConfig(), network.MessageConfig()} {
		for _, payload := range []int64{1, 15, 16, 17, 255, 256, 257, 4096, 100000} {
			flits := cfg.Flitize(payload)
			got := cfg.WireBytes(payload)
			want := int64(len(flits)) * int64(cfg.FlitBytes)
			if got != want {
				t.Errorf("msg=%v payload=%d: WireBytes=%d, Flitize gives %d flits = %d bytes",
					cfg.MessageBased, payload, got, len(flits), want)
			}
		}
	}
}
