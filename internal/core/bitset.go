package core

// bitset is a word-packed bit vector indexed by link id. The planner
// keeps the per-step link pool here, so starting a fresh time step is a
// whole-word fill instead of a per-link scan.
type bitset []uint64

// newBitset returns a bitset able to hold n bits, all zero.
func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

// test reports whether bit i is set.
func (b bitset) test(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

// clear clears bit i.
func (b bitset) clear(i int) { b[i>>6] &^= 1 << uint(i&63) }

// fill sets every word to all-ones. Bits past the logical length are
// never tested, so leaving them set is harmless.
func (b bitset) fill() {
	for i := range b {
		b[i] = ^uint64(0)
	}
}
