package algorithms_test

import (
	"strings"
	"testing"

	"multitree/internal/algorithms"
	"multitree/internal/collective"
	"multitree/internal/topology"
)

func names(specs []algorithms.Spec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// TestMenus pins the featured evaluation menu per fabric, matching the
// paper's Fig. 9 legends.
func TestMenus(t *testing.T) {
	cfg := topology.DefaultLinkConfig()
	cases := []struct {
		topo *topology.Topology
		want string
	}{
		{topology.Torus(4, 4, cfg), "ring,dbtree,2d-ring,multitree"},
		{topology.Mesh(8, 8, cfg), "ring,dbtree,2d-ring,multitree"},
		{topology.FatTree(4, 4, 4, cfg), "ring,dbtree,hdrm,multitree"},
		{topology.BiGraph(4, 4, cfg), "ring,dbtree,hdrm,multitree"},
		{topology.BiGraph(3, 4, cfg), "ring,dbtree,multitree"}, // 24 nodes: not 2^k
	}
	for _, tc := range cases {
		if got := strings.Join(names(algorithms.For(tc.topo)), ","); got != tc.want {
			t.Errorf("For(%s) = %s, want %s", tc.topo.Name(), got, tc.want)
		}
	}
	// Supporting is the superset: HDRM builds on a 16-node torus even
	// though the menu omits it there.
	torus := topology.Torus(4, 4, cfg)
	if got := strings.Join(names(algorithms.Supporting(torus)), ","); got != "ring,dbtree,2d-ring,hdrm,multitree" {
		t.Errorf("Supporting(torus-4x4) = %s", got)
	}
}

// TestResolveAndBuild: every registered algorithm builds a valid,
// correctly named schedule through the uniform entry point, and the -msg
// variant resolves to the base builder.
func TestResolveAndBuild(t *testing.T) {
	topo := topology.Torus(4, 4, topology.DefaultLinkConfig())
	const elems = 256
	for _, spec := range algorithms.Supporting(topo) {
		s, err := algorithms.Build(topo, spec.Name, elems, algorithms.Options{})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if err := collective.VerifyAllReduce(s, collective.RampInputs(topo.Nodes(), elems)); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
	}
	spec, msg, err := algorithms.Resolve("multitree-msg")
	if err != nil || !msg || spec.Name != "multitree" {
		t.Fatalf("Resolve(multitree-msg) = %v, %v, %v", spec.Name, msg, err)
	}
	if _, _, err := algorithms.Resolve("nccl"); err == nil || !strings.Contains(err.Error(), "multitree") {
		t.Fatalf("unknown-name error should list the registry, got %v", err)
	}
}

// TestBuildErrorsOnUnsupported: constructors fail with errors, never
// panics, off their applicability domain.
func TestBuildErrorsOnUnsupported(t *testing.T) {
	fat := topology.FatTree(3, 3, 3, topology.DefaultLinkConfig()) // 9 nodes: no grid, not 2^k
	for _, name := range []string{"2d-ring", "hdrm"} {
		if _, err := algorithms.Build(fat, name, 64, algorithms.Options{}); err == nil {
			t.Errorf("%s built on %s", name, fat.Name())
		}
	}
}

// TestBuildRejectsSubElement: every registered algorithm, and the -msg
// variant, refuses fewer than one element with an error.
func TestBuildRejectsSubElement(t *testing.T) {
	topo := topology.Torus(4, 4, topology.DefaultLinkConfig())
	names := append(algorithms.Names(), "multitree"+algorithms.MsgSuffix)
	for _, name := range names {
		for _, elems := range []int{0, -1} {
			if s, err := algorithms.Build(topo, name, elems, algorithms.Options{}); err == nil {
				t.Errorf("%s at %d elems built %d transfers, want an error", name, elems, len(s.Transfers))
			} else if !strings.Contains(err.Error(), "element") {
				t.Errorf("%s at %d elems: error %q does not name the element minimum", name, elems, err)
			}
		}
	}
}
