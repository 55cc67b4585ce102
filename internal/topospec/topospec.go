// Package topospec parses the compact topology names used by the command
// line tools and benchmark harness, e.g. "torus-8x8", "mesh-4x4",
// "fattree-16", "fattree-64", "bigraph-32", "bigraph-64".
package topospec

import (
	"fmt"
	"strconv"
	"strings"

	"multitree/internal/topology"
)

// MaxNodes and MaxLinks bound the end nodes and directed links a spec
// may describe, so a hostile size fails here instead of allocating in a
// constructor. Both sit far above the largest fabric the tools plan,
// mesh-64x64 (4096 nodes, 16128 links), and MaxLinks admits every
// grid at MaxNodes.
const (
	MaxNodes = 1 << 16
	MaxLinks = 1 << 19
)

// Kinds returns the recognized spec shapes in display order, for CLI
// usage strings and unknown-kind errors.
func Kinds() []string {
	return []string{
		"torus-<nx>x<ny>",
		"mesh-<nx>x<ny>",
		"torus3d-<nx>x<ny>x<nz>",
		"mesh3d-<nx>x<ny>x<nz>",
		"dragonfly-<groups>x<routers>x<nodes>",
		"fattree-<n>",
		"bigraph-<n>",
	}
}

// Usage is the one-line form of Kinds, e.g. for flag descriptions.
func Usage() string {
	return strings.Join(Kinds(), ", ")
}

// Parse builds the named topology with Table III link parameters. The
// dash may be left out ("torus4x4" for "torus-4x4").
func Parse(spec string) (*topology.Topology, error) {
	cfg := topology.DefaultLinkConfig()
	kind, arg, ok := strings.Cut(spec, "-")
	if !ok {
		kind, arg, ok = cutDashless(spec)
	}
	if !ok {
		return nil, fmt.Errorf("topospec: %q is not <kind>-<size> (known kinds: %s)", spec, Usage())
	}
	switch kind {
	case "torus", "mesh", "torus3d", "mesh3d":
		rank, shape := 2, "<nx>x<ny>"
		if strings.HasSuffix(kind, "3d") {
			rank, shape = 3, "<nx>x<ny>x<nz>"
		}
		parts := strings.Split(arg, "x")
		if len(parts) != rank {
			return nil, fmt.Errorf("topospec: %q needs %s", spec, shape)
		}
		d, ok := atoiAll(parts)
		if !ok {
			return nil, fmt.Errorf("topospec: bad grid size in %q", spec)
		}
		if err := checkDims(spec, d...); err != nil {
			return nil, err
		}
		if err := checkSize(spec, product(MaxNodes, d...), 2*rank, 0); err != nil {
			return nil, err
		}
		switch kind {
		case "torus":
			return topology.Torus(d[0], d[1], cfg), nil
		case "mesh":
			return topology.Mesh(d[0], d[1], cfg), nil
		case "torus3d":
			return topology.Torus3D(d[0], d[1], d[2], cfg), nil
		}
		return topology.Mesh3D(d[0], d[1], d[2], cfg), nil
	case "dragonfly":
		// dragonfly-<groups>x<routers>x<nodesPerRouter>
		parts := strings.Split(arg, "x")
		if len(parts) != 3 {
			return nil, fmt.Errorf("topospec: %q needs <groups>x<routers>x<nodes>", spec)
		}
		d, ok := atoiAll(parts)
		if !ok {
			return nil, fmt.Errorf("topospec: bad dragonfly size in %q", spec)
		}
		if err := checkDragonfly(spec, d[0], d[1], d[2]); err != nil {
			return nil, err
		}
		// NIC cables, each group's router clique, one cable per group pair.
		g, r := d[0], d[1]
		cliques := product(MaxLinks, g, r, r-1) + product(MaxLinks, g, g-1)
		if err := checkSize(spec, product(MaxNodes, d[0], d[1], d[2]), 2, cliques); err != nil {
			return nil, err
		}
		return topology.Dragonfly(d[0], d[1], d[2], cfg), nil
	case "fattree":
		n, err := strconv.Atoi(arg)
		if err != nil {
			return nil, fmt.Errorf("topospec: bad fat-tree size in %q", spec)
		}
		if n < 4 {
			return nil, fmt.Errorf("topospec: fat-tree size %d is too small; need at least 4 nodes", n)
		}
		// NIC cables plus leaf-spine cables: 2n directed links each.
		if err := checkSize(spec, n, 4, 0); err != nil {
			return nil, err
		}
		switch n {
		case 16:
			// DGX-2-like: 4 leaves x 4 nodes, 4 spines (§VI-A).
			return topology.FatTree(4, 4, 4, cfg), nil
		case 64:
			// 8-ary 2-level fat tree.
			return topology.FatTree(8, 8, 8, cfg), nil
		default:
			// k-ary 2-level: k leaves of k nodes with k spines.
			k := isqrt(n)
			if k*k != n {
				return nil, fmt.Errorf("topospec: fat-tree size %d is not a square", n)
			}
			return topology.FatTree(k, k, k, cfg), nil
		}
	case "bigraph":
		n, err := strconv.Atoi(arg)
		if err != nil {
			return nil, fmt.Errorf("topospec: bad bigraph size in %q", spec)
		}
		// Four nodes per switch as in EFLOPS's 32- and 64-node systems.
		if n < 8 || n%8 != 0 {
			return nil, fmt.Errorf("topospec: bigraph size %d is not a positive multiple of 8", n)
		}
		// NIC cables plus the full bipartite layer of n/8 x n/8 cables.
		if err := checkSize(spec, n, 2, 2*product(MaxLinks, n/8, n/8)); err != nil {
			return nil, err
		}
		return topology.BiGraph(n/8, 4, cfg), nil
	}
	return nil, fmt.Errorf("topospec: unknown topology kind %q (known kinds: %s)", kind, Usage())
}

// cutDashless splits the dashless shorthand "torus4x4" into its kind and
// size: the longest known kind directly followed by a digit, so
// "torus3d4x4x4" is a torus3d.
func cutDashless(spec string) (kind, arg string, ok bool) {
	for _, k := range Kinds() {
		name, _, _ := strings.Cut(k, "-")
		rest, found := strings.CutPrefix(spec, name)
		if found && len(name) > len(kind) && rest != "" && rest[0] >= '0' && rest[0] <= '9' {
			kind, arg, ok = name, rest, true
		}
	}
	return kind, arg, ok
}

// atoiAll parses every part as a decimal integer.
func atoiAll(parts []string) ([]int, bool) {
	d := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, false
		}
		d[i] = v
	}
	return d, true
}

// checkDims rejects degenerate grid shapes before they reach the
// topology constructors, which panic on dimensions below 2.
func checkDims(spec string, dims ...int) error {
	for _, d := range dims {
		if d < 2 {
			return fmt.Errorf("topospec: %q has dimension %d; every grid dimension must be >= 2", spec, d)
		}
	}
	return nil
}

// checkSize rejects a spec over MaxNodes end nodes, or over MaxLinks
// directed links: perNode links for every node plus extra. The node
// bound is checked first, so perNode*nodes cannot overflow; extra comes
// from product, which saturates.
func checkSize(spec string, nodes, perNode, extra int) error {
	if nodes > MaxNodes {
		return fmt.Errorf("topospec: %q has more than %d nodes", spec, MaxNodes)
	}
	if perNode*nodes+extra > MaxLinks {
		return fmt.Errorf("topospec: %q has more than %d links", spec, MaxLinks)
	}
	return nil
}

// product multiplies non-negative factors, saturating at limit+1 so
// hostile sizes cannot overflow.
func product(limit int, factors ...int) int {
	p := 1
	for _, f := range factors {
		if p != 0 && f > limit/p {
			return limit + 1
		}
		p *= f
	}
	return p
}

// checkDragonfly mirrors the dragonfly constructor's panic conditions as
// errors: >= 2 groups, enough routers for full global connectivity, and
// at least one node per router.
func checkDragonfly(spec string, groups, routers, nodes int) error {
	if groups < 2 || routers < 1 || nodes < 1 {
		return fmt.Errorf("topospec: %q needs >= 2 groups, >= 1 router and >= 1 node per router", spec)
	}
	if routers < groups-1 {
		return fmt.Errorf("topospec: %q needs routers >= groups-1 for full global connectivity", spec)
	}
	return nil
}

// TorusFor returns the near-square 2D torus with n nodes used by the
// scalability study (Fig. 10): 16 -> 4x4, 32 -> 4x8, 64 -> 8x8,
// 128 -> 8x16, 256 -> 16x16.
func TorusFor(n int) (*topology.Topology, error) {
	ny := isqrt(n)
	for ny > 1 && n%ny != 0 {
		ny--
	}
	nx := n / ny
	if nx < 2 || ny < 2 {
		return nil, fmt.Errorf("topospec: cannot shape %d nodes into a torus", n)
	}
	return topology.Torus(nx, ny, topology.DefaultLinkConfig()), nil
}

func isqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}
