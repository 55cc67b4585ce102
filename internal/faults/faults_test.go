package faults

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"multitree/internal/sim"
	"multitree/internal/topology"
)

func torus4x4(t *testing.T) *topology.Topology {
	t.Helper()
	return topology.Torus(4, 4, topology.DefaultLinkConfig())
}

func TestParseSpecRoundTrip(t *testing.T) {
	spec := "link:3-7@t=5000:down,link:0-1:bw=0.5,link:2-3:lat+100,node:12:down"
	p, err := ParseSpec(spec)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", spec, err)
	}
	if len(p.Links) != 3 || len(p.Nodes) != 1 {
		t.Fatalf("got %d link / %d node faults, want 3/1", len(p.Links), len(p.Nodes))
	}
	if f := p.Links[0]; !f.Down || f.A != 3 || f.B != 7 || f.At != 5000 {
		t.Errorf("clause 0 parsed as %+v", f)
	}
	if f := p.Links[1]; f.BWScale != 0.5 || f.At != 0 {
		t.Errorf("clause 1 parsed as %+v", f)
	}
	if f := p.Links[2]; f.AddLatency != 100 {
		t.Errorf("clause 2 parsed as %+v", f)
	}
	if f := p.Nodes[0]; f.Vertex != 12 {
		t.Errorf("node clause parsed as %+v", f)
	}
	if got := p.String(); got != spec {
		t.Errorf("String() = %q, want round trip of %q", got, spec)
	}
	back, err := ParseSpec(p.String())
	if err != nil || back.String() != spec {
		t.Errorf("re-parse of String() failed: %v / %q", err, back.String())
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"link:0-1",             // no effect
		"link:0-1:up",          // unknown effect
		"link:0-0:down",        // self loop
		"link:0:down",          // not a pair
		"link:0-1:bw=1.5",      // scale out of range
		"link:0-1:bw=0",        // scale out of range
		"link:0-1:bw=NaN",      // not a number
		"link:0-1:bw=-Inf",     // not finite
		"link:0-1:lat+0",       // zero latency
		"link:0-1@5:down",      // bad time suffix
		"node:3:bw=0.5",        // nodes only go down
		"node:-1:down",         // negative vertex
		"switch:0:down",        // unknown kind
		"link:0-1:down,,",      // empty clause
		"link:0-1@t=nope:down", // unparsable time
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error", bad)
		}
	}
	p, err := ParseSpec("  ")
	if err != nil || !p.Empty() {
		t.Errorf("blank spec: got %v, %+v", err, p)
	}
}

// FuzzParseSpec feeds arbitrary specs to the parser. It must never
// panic, must allocate at most 64 bytes per input byte plus 1 MiB (the
// decoders' bound), and every plan it accepts must survive the String
// round trip that Plan.String promises: re-parsing the rendered spec
// yields an equal plan.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		var p *Plan
		var err error
		used := allocBytes(func() { p, err = ParseSpec(spec) })
		if limit := 64*uint64(len(spec)) + 1<<20; used > limit {
			t.Fatalf("parsing %d bytes allocated %d (limit %d)", len(spec), used, limit)
		}
		if err != nil {
			return
		}
		back, err := ParseSpec(p.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q) renders as %q, which does not parse: %v", spec, p.String(), err)
		}
		if !reflect.DeepEqual(p, back) {
			t.Fatalf("ParseSpec(%q) = %+v, but its rendering %q parses to %+v", spec, p, p.String(), back)
		}
	})
}

// allocBytes returns the heap bytes fn allocates.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestApplyEmptyPlanIsIdentity(t *testing.T) {
	topo := torus4x4(t)
	d, err := Apply(topo, &Plan{})
	if err != nil {
		t.Fatalf("Apply(empty): %v", err)
	}
	if d.Topo != topo {
		t.Error("empty plan should return the original topology unchanged")
	}
	if nx, _ := d.Topo.GridDims(); nx != 4 {
		t.Error("empty plan lost grid dims")
	}
	for n := 0; n < topo.Nodes(); n++ {
		if d.NodeOf[n] != topology.NodeID(n) || d.OrigNode[n] != topology.NodeID(n) {
			t.Fatalf("identity mapping broken at node %d", n)
		}
	}
}

func TestApplyLinkDown(t *testing.T) {
	topo := torus4x4(t)
	p, err := ParseSpec("link:0-1:down")
	if err != nil {
		t.Fatal(err)
	}
	d, err := Apply(topo, p)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if d.Topo.Nodes() != 16 {
		t.Fatalf("degraded torus has %d nodes, want 16", d.Topo.Nodes())
	}
	// Both directions of the cable are gone.
	if len(d.RemovedLinks) != 2 {
		t.Fatalf("removed %d links, want 2 (both directions)", len(d.RemovedLinks))
	}
	for _, l := range d.Topo.Links() {
		if hits(l, 0, 1) {
			t.Fatalf("degraded topology still has link %d->%d", l.Src, l.Dst)
		}
	}
	// Torus stays connected: BFS routing must find an alternate 0->1 path.
	path := d.Topo.Route(0, 1)
	if len(path) == 0 {
		t.Fatal("no route 0->1 in degraded torus")
	}
	for _, lid := range path {
		if hits(d.Topo.Link(lid), 0, 1) {
			t.Fatal("route 0->1 uses the failed cable")
		}
	}
}

func TestApplyStragglerAndLatency(t *testing.T) {
	topo := torus4x4(t)
	base := topo.Link(0)
	p, _ := ParseSpec("link:0-1:bw=0.5,link:0-1:lat+25")
	d, err := Apply(topo, p)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	found := 0
	for _, l := range d.Topo.Links() {
		if hits(l, 0, 1) {
			found++
			if l.Bandwidth != base.Bandwidth*0.5 {
				t.Errorf("straggler bandwidth %g, want %g", l.Bandwidth, base.Bandwidth*0.5)
			}
			if l.Latency != base.Latency+25 {
				t.Errorf("latency %d, want %d", l.Latency, base.Latency+25)
			}
		}
	}
	if found != 2 {
		t.Errorf("found %d degraded links of cable 0-1, want 2", found)
	}
}

func TestApplyNodeDownRenumbers(t *testing.T) {
	topo := torus4x4(t)
	p, _ := ParseSpec("node:5:down")
	d, err := Apply(topo, p)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if d.Topo.Nodes() != 15 {
		t.Fatalf("degraded torus has %d nodes, want 15", d.Topo.Nodes())
	}
	if d.NodeOf[5] != -1 {
		t.Errorf("NodeOf[5] = %d, want -1", d.NodeOf[5])
	}
	if d.NodeOf[6] != 5 || d.OrigNode[5] != 6 {
		t.Errorf("renumbering wrong: NodeOf[6]=%d OrigNode[5]=%d", d.NodeOf[6], d.OrigNode[5])
	}
	// node 5 had degree 4 (torus): 8 directed links removed.
	if len(d.RemovedLinks) != 8 {
		t.Errorf("removed %d links, want 8", len(d.RemovedLinks))
	}
	for _, l := range d.Topo.Links() {
		if d.OrigVertex[l.Src] == 5 || d.OrigVertex[l.Dst] == 5 {
			t.Fatal("degraded topology still touches dead node 5")
		}
	}
}

func TestApplyUnroutable(t *testing.T) {
	topo := torus4x4(t)
	// Sever all four cables of node 0: it survives but cannot be reached.
	p, _ := ParseSpec("link:0-1:down,link:0-3:down,link:0-4:down,link:0-12:down")
	_, err := Apply(topo, p)
	if err == nil {
		t.Fatal("Apply succeeded on a disconnecting plan")
	}
	if !strings.Contains(err.Error(), "disconnect") {
		t.Errorf("error %q does not mention disconnection", err)
	}
}

func TestApplyValidation(t *testing.T) {
	topo := torus4x4(t)
	if _, err := Apply(topo, &Plan{Links: []LinkFault{{A: 0, B: 99, Down: true}}}); err == nil {
		t.Error("out-of-range vertex accepted")
	}
	// 0 and 5 are not torus neighbors: no cable to fail.
	if _, err := Apply(topo, &Plan{Links: []LinkFault{{A: 0, B: 5, Down: true}}}); err == nil {
		t.Error("absent cable accepted")
	}
	// Vertices one 2^32 past a real cable's ends (0-1) or a real node
	// stay out of range: the check runs on int, before any narrowing to
	// an int32 node or link id could wrap them back.
	for _, spec := range []string{"link:4294967296-4294967297:down", "node:4294967296:down"} {
		p, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if _, err := Apply(topo, p); err == nil || !strings.Contains(err.Error(), "outside") {
			t.Errorf("Apply(%s) = %v, want an out-of-range error", spec, err)
		}
		if _, err := Compile(p, topo); err == nil || !strings.Contains(err.Error(), "outside") {
			t.Errorf("Compile(%s) = %v, want an out-of-range error", spec, err)
		}
	}
	// Killing 15 of 16 nodes leaves too few for an all-reduce.
	var p Plan
	for n := 0; n < 15; n++ {
		p.Nodes = append(p.Nodes, NodeFault{Vertex: n})
	}
	if _, err := Apply(topo, &p); err == nil {
		t.Error("plan leaving <2 nodes accepted")
	}
}

func TestRandomLinkFailuresDeterministicAndConnected(t *testing.T) {
	topo := torus4x4(t)
	a, err := RandomLinkFailures(topo, 3, 42)
	if err != nil {
		t.Fatalf("RandomLinkFailures: %v", err)
	}
	b, err := RandomLinkFailures(topo, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("same seed, different plans: %q vs %q", a, b)
	}
	c, _ := RandomLinkFailures(topo, 3, 7)
	if c.String() == a.String() {
		t.Logf("seeds 42 and 7 coincide (possible but unlikely): %q", a)
	}
	if len(a.Links) != 3 {
		t.Fatalf("plan has %d failures, want 3", len(a.Links))
	}
	if _, err := Apply(topo, a); err != nil {
		t.Errorf("random plan disconnects the fabric: %v", err)
	}
}

func TestRandomLinkFailuresTooMany(t *testing.T) {
	// A 2x2 mesh is a 4-cycle: it tolerates exactly one cable loss, and
	// any two removals disconnect it.
	cyc := topology.Mesh(2, 2, topology.DefaultLinkConfig())
	if _, err := RandomLinkFailures(cyc, 2, 1); err == nil {
		t.Error("RandomLinkFailures found 2 removable cables in a 4-cycle")
	}
}

func TestCompile(t *testing.T) {
	topo := torus4x4(t)
	p, _ := ParseSpec("link:0-1@t=5000:down,link:0-4:bw=0.25,node:5@t=100:down")
	c, err := Compile(p, topo)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	// Changes sorted by time: node-5 links at t=100 first, then 0-1 at 5000,
	// with the t=0 straggler first of all.
	chs := c.Changes()
	if len(chs) != 2+2+8 {
		t.Fatalf("got %d changes, want 12", len(chs))
	}
	for i := 1; i < len(chs); i++ {
		if chs[i].At < chs[i-1].At {
			t.Fatal("Changes not sorted by time")
		}
	}

	var l01, l04 topology.LinkID = -1, -1
	for _, l := range topo.Links() {
		if l.Src == 0 && l.Dst == 1 {
			l01 = l.ID
		}
		if l.Src == 0 && l.Dst == 4 {
			l04 = l.ID
		}
	}
	base := topo.Link(l01).Bandwidth
	if bw := c.Bandwidth(l01, base, 0); bw != base {
		t.Errorf("link 0->1 bandwidth before fault = %g, want %g", bw, base)
	}
	if bw := c.Bandwidth(l01, base, 5000); bw != 0 {
		t.Errorf("link 0->1 bandwidth at fault time = %g, want 0", bw)
	}
	if bw := c.Bandwidth(l04, base, 0); bw != base*0.25 {
		t.Errorf("straggler 0->4 bandwidth = %g, want %g", bw, base*0.25)
	}
	if at, down := c.DownAt(l01); !down || at != 5000 {
		t.Errorf("DownAt(0->1) = %d,%v want 5000,true", at, down)
	}
	if _, down := c.DownAt(l04); down {
		t.Error("straggler link reported as down")
	}

	// Empty plan compiles to nil: the engines' no-fault fast path.
	if c, err := Compile(&Plan{}, topo); err != nil || c != nil {
		t.Errorf("Compile(empty) = %v, %v; want nil, nil", c, err)
	}
}

func TestCompileExtraLatency(t *testing.T) {
	topo := torus4x4(t)
	p, _ := ParseSpec("link:0-1@t=200:lat+50")
	c, err := Compile(p, topo)
	if err != nil {
		t.Fatal(err)
	}
	var l01 topology.LinkID
	for _, l := range topo.Links() {
		if l.Src == 0 && l.Dst == 1 {
			l01 = l.ID
		}
	}
	if add := c.ExtraLatency(l01, 0); add != 0 {
		t.Errorf("extra latency before activation = %d, want 0", add)
	}
	if add := c.ExtraLatency(l01, 200); add != 50 {
		t.Errorf("extra latency after activation = %d, want 50", add)
	}
	if add := c.ExtraLatency(l01, 199.9999999); add != 50 {
		t.Errorf("extra latency within eps of activation = %d, want 50", add)
	}
	_ = sim.Time(0)
}
