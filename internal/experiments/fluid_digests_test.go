package experiments

// Fluid-engine digests beyond TestGoldenEngineDigests' reach. The golden
// file covers 16-32-node fabrics at 64 KiB: no zero-byte transfers and no
// 256-node lockstep pipeline. This test pins both. The values were
// recorded on the engine that re-tested every step-gated ready transfer
// on every event, before the per-(node, step) release replaced it, so they
// guard that the release keeps activation order, and with it every
// simulated number and traced event, bit for bit.

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"testing"

	"multitree/internal/algorithms"
	"multitree/internal/collective"
	"multitree/internal/network"
	"multitree/internal/obs"
	"multitree/internal/topospec"
)

// hashTracer digests a traced event stream as it is emitted, the same
// bytes digestEvents hashes, without holding a 256-node run's events.
type hashTracer struct {
	h   hash.Hash
	n   int
	buf []obs.Event
}

func newHashTracer() *hashTracer { return &hashTracer{h: sha256.New()} }

func (ht *hashTracer) Emit(ev obs.Event) {
	ht.n++
	ht.buf = append(ht.buf, ev)
	if len(ht.buf) == 4096 {
		ht.flush()
	}
}

func (ht *hashTracer) flush() {
	ht.h.Write(eventStreamBytes(ht.buf))
	ht.buf = ht.buf[:0]
}

func (ht *hashTracer) digest() string {
	ht.flush()
	return fmt.Sprintf("%x", ht.h.Sum(nil))
}

func TestFluidLockstepDigests(t *testing.T) {
	cases := []struct {
		topo, alg string
		elems     int
		msg       bool
		cycles    uint64
		events    int
		result    string
		trace     string
	}{
		// 130,560 transfers, the benchmark's fabric-mesh16 op at 256 KiB.
		{"mesh-16x16", "multitree", (256 << 10) / collective.WordSize, true, 30595, 568233,
			"32adffdd89c356a2584ae07b0d02146dfd07a3ce0172458f13cc1853251c84c1",
			"a91a53ef00b7683da8aa5e1a8315e32c65005c27e811cb8722284fca146b6953"},
		// 8 elements: most transfers carry zero bytes, so their
		// injections advance node steps inside an activation pass.
		{"torus-4x4", "ring", 8, false, 4560, 2160,
			"5b665eb5866d0982092e8ad37a8f75995cf06062717a755b5d498da6c780ae52",
			"af8f3e46a31966655ece85a4669a3320aaa201787038f005ee84bded27803f08"},
		{"torus-4x4", "2d-ring", 8, false, 1824, 2880,
			"812ba0c5c547dd95fab5b4ec1295a8891d0d0123af7ab05fbad55c0b81c70df9",
			"7f4ce1288c590de31f9aeec33b190856f074b3bf71e7195248d270ab8a0e3bf5"},
		{"torus-4x4", "multitree", 8, false, 1216, 1840,
			"d599fc3a0594f076a861187effe53c399abecde20eb94e47cdc695f790533d6e",
			"5588ba788c55dac1c10335c478d5ace36c463578481ac8d33bca9fa0867c471e"},
	}
	for _, c := range cases {
		name := c.topo + "/" + c.alg
		if c.msg {
			name += "-msg"
		}
		t.Run(name, func(t *testing.T) {
			topo, err := topospec.Parse(c.topo)
			if err != nil {
				t.Fatal(err)
			}
			s, err := algorithms.Build(topo, c.alg, c.elems, algorithms.Options{})
			if err != nil {
				t.Fatal(err)
			}
			cfg := network.DefaultConfig()
			if c.msg {
				cfg = network.MessageConfig()
			}
			ht := newHashTracer()
			cfg.Tracer = ht
			res, err := network.SimulateFluid(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			zero := 0
			for i := range s.Transfers {
				if s.Bytes(&s.Transfers[i]) == 0 {
					zero++
				}
			}
			got := fmt.Sprintf("%d transfers (%d zero-byte): cycles %d, %d events, result %s, trace %s",
				len(s.Transfers), zero, res.Cycles, ht.n, digestResult(res), ht.digest())
			want := fmt.Sprintf("%d transfers (%d zero-byte): cycles %d, %d events, result %s, trace %s",
				len(s.Transfers), zero, c.cycles, c.events, c.result, c.trace)
			if got != want {
				t.Errorf("\n got %s\nwant %s", got, want)
			}
		})
	}
}
