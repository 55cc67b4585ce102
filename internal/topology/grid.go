package topology

import "strconv"

// Mesh builds an nx-by-ny 2D mesh direct network. Node (x, y) is node id
// y*nx + x. Outgoing links are added Y-dimension first, then X, matching
// the neighbor-preference order Algorithm 1 of the paper uses during link
// allocation.
func Mesh(nx, ny int, cfg LinkConfig) *Topology {
	return grid("mesh", []int{nx, ny}, false, cfg)
}

// Torus builds an nx-by-ny 2D torus direct network with wrap-around links
// in both dimensions.
func Torus(nx, ny int, cfg LinkConfig) *Topology {
	return grid("torus", []int{nx, ny}, true, cfg)
}

// Torus3D builds an nx-by-ny-by-nz 3D torus — the pod fabric of newer
// TPU generations. Node (x, y, z) is id (z*ny + y)*nx + x. Out-links are
// ordered Z, then Y, then X, extending the paper's
// higher-dimension-first allocation preference to three dimensions.
// MultiTree needs no changes to schedule on it (§VII's generality claim);
// 2D-Ring does not apply.
func Torus3D(nx, ny, nz int, cfg LinkConfig) *Topology {
	return grid("torus3d", []int{nx, ny, nz}, true, cfg)
}

// Mesh3D builds an nx-by-ny-by-nz 3D mesh.
func Mesh3D(nx, ny, nz int, cfg LinkConfig) *Topology {
	return grid("mesh3d", []int{nx, ny, nz}, false, cfg)
}

// grid builds a mesh or torus of shape dims, X first. Node ids are mixed
// radix: coordinate c[d] contributes c[d] times the product of the
// dimensions below d. Named "<kind>-<d0>x<d1>...".
func grid(kind string, dims []int, wrap bool, cfg LinkConfig) *Topology {
	name, stride, nodes := kind+"-", make([]int, len(dims)), 1
	for d, n := range dims {
		if n < 2 {
			panic("topology: every grid dimension must be at least 2")
		}
		if d > 0 {
			name += "x"
		}
		name += strconv.Itoa(n)
		stride[d] = nodes
		nodes *= n
	}
	b := newBuilder(name, Direct, nodes, 0)
	// Highest dimension first (the Y-before-X preference of §III-C1),
	// +1 before -1. A dimension of length 2 gets no wrap link: its
	// neighbor is already one mesh link away.
	for d := len(dims) - 1; d >= 0; d-- {
		n, s, wrapD := dims[d], stride[d], wrap && dims[d] > 2
		for v := 0; v < nodes; v++ {
			c := v / s % n
			if c+1 < n {
				b.addLink(v, v+s, cfg)
			} else if wrapD {
				b.addLink(v, v-c*s, cfg)
			}
			if c > 0 {
				b.addLink(v, v-s, cfg)
			} else if wrapD {
				b.addLink(v, v+(n-1)*s, cfg)
			}
		}
	}
	t := b.t
	t.dims = dims
	t.route = func(t *Topology, src, dst NodeID) []LinkID {
		return gridRoute(t, stride, wrap, int(src), int(dst))
	}
	t.ringOrder = snake(dims)
	return t
}

// gridRoute is dimension-order routing, lowest dimension first. On a
// torus each dimension goes the shorter way round, breaking ties toward
// the positive direction.
func gridRoute(t *Topology, stride []int, wrap bool, src, dst int) []LinkID {
	var path []LinkID
	v := src
	for d, n := range t.dims {
		s := stride[d]
		c := src / s % n
		hops, dir := dst/s%n-c, 1
		if hops < 0 {
			hops, dir = -hops, -1
		}
		if wrap && n > 2 && (n-hops < hops || n-hops == hops && dir < 0) {
			hops, dir = n-hops, -dir
		}
		for ; hops > 0; hops-- {
			next := v + dir*s
			switch c += dir; c {
			case n:
				c, next = 0, v-(n-1)*s
			case -1:
				c, next = n-1, v+(n-1)*s
			}
			path = append(path, t.linkBetween(v, next))
			v = next
		}
	}
	return path
}

// snake returns a boustrophedon Hamiltonian ordering: n copies of the
// lower-dimensional snake stacked along each dimension, every other copy
// reversed. Consecutive nodes are physically adjacent; only the closing
// edge of the ring may be multi-hop.
func snake(dims []int) []NodeID {
	order, stride := []NodeID{0}, 1
	for _, n := range dims {
		next := make([]NodeID, 0, len(order)*n)
		for c := 0; c < n; c++ {
			for i := range order {
				if c%2 == 1 {
					i = len(order) - 1 - i
				}
				next = append(next, NodeID(c*stride)+order[i])
			}
		}
		order, stride = next, stride*n
	}
	return order
}
