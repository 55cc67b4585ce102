package plancache_test

import (
	"sync"
	"testing"

	"multitree/internal/collective"
	"multitree/internal/plancache"
	"multitree/internal/topology"
)

// TestMemCacheHitAndShare: a Put'd plan comes back on Get — the same
// pointer, since the cache's contract is a shared read-only schedule —
// and the counters record the traffic.
func TestMemCacheHitAndShare(t *testing.T) {
	topo := topology.Torus(4, 4, cfg())
	s := build(t, topo, 1024)
	m := plancache.NewMemCache(s.MemBytes() * 4)
	key := plancache.Key(topo, "multitree", 1024)

	if _, ok := m.Get(key); ok {
		t.Fatal("hit on an empty cache")
	}
	m.Put(key, s)
	got, ok := m.Get(key)
	if !ok {
		t.Fatal("miss after Put")
	}
	if got != s {
		t.Fatal("Get returned a different schedule than Put stored")
	}
	st := m.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes != s.MemBytes() {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 entry of %d bytes", st, s.MemBytes())
	}
}

// TestMemCacheEviction: the byte cap holds by evicting least-recently-
// used entries; a Get refreshes recency, so the untouched entry is the
// one that goes.
func TestMemCacheEviction(t *testing.T) {
	topo := topology.Torus(4, 4, cfg())
	a := build(t, topo, 1024)
	b := build(t, topo, 2048)
	c := build(t, topo, 4096)
	keyA := plancache.Key(topo, "multitree", 1024)
	keyB := plancache.Key(topo, "multitree", 2048)
	keyC := plancache.Key(topo, "multitree", 4096)

	// Room for roughly two of the three plans.
	m := plancache.NewMemCache(a.MemBytes() + b.MemBytes() + c.MemBytes()/2)
	m.Put(keyA, a)
	m.Put(keyB, b)
	if _, ok := m.Get(keyA); !ok { // refresh A: B becomes the LRU victim
		t.Fatal("A missing before any eviction")
	}
	m.Put(keyC, c)
	if _, ok := m.Get(keyB); ok {
		t.Fatal("LRU entry B survived an over-cap Put")
	}
	if _, ok := m.Get(keyA); !ok {
		t.Fatal("recently used A was evicted instead of LRU B")
	}
	if _, ok := m.Get(keyC); !ok {
		t.Fatal("just-stored C was evicted")
	}
	st := m.Stats()
	if st.Evictions == 0 {
		t.Fatalf("stats = %+v, want at least one eviction", st)
	}
	if st.Bytes > a.MemBytes()+b.MemBytes()+c.MemBytes()/2 {
		t.Fatalf("resident bytes %d exceed the cap", st.Bytes)
	}
}

// TestMemCacheOversized: a plan larger than the whole cap is skipped
// outright instead of flushing every resident entry for nothing.
func TestMemCacheOversized(t *testing.T) {
	topo := topology.Torus(4, 4, cfg())
	bigTopo := topology.Torus(8, 8, cfg())
	small := build(t, topo, 1024)
	big := build(t, bigTopo, 8192)
	if big.MemBytes() <= small.MemBytes()+1 {
		t.Fatalf("test plans too close in size: small %d, big %d", small.MemBytes(), big.MemBytes())
	}
	keySmall := plancache.Key(topo, "multitree", 1024)
	keyBig := plancache.Key(bigTopo, "multitree", 8192)

	m := plancache.NewMemCache(small.MemBytes() + 1)
	m.Put(keySmall, small)
	m.Put(keyBig, big)
	if _, ok := m.Get(keyBig); ok {
		t.Fatal("plan bigger than the cap was cached")
	}
	if _, ok := m.Get(keySmall); !ok {
		t.Fatal("resident entry flushed by an oversized Put that could never fit")
	}
}

// TestMemCacheDisabled: cap <= 0 and nil receivers are inert, so
// callers thread one handle unconditionally.
func TestMemCacheDisabled(t *testing.T) {
	topo := topology.Torus(4, 4, cfg())
	s := build(t, topo, 1024)
	key := plancache.Key(topo, "multitree", 1024)
	off := plancache.NewMemCache(0)
	off.Put(key, s)
	if _, ok := off.Get(key); ok {
		t.Fatal("disabled cache served a hit")
	}
	var nilCache *plancache.MemCache
	nilCache.Put(key, s)
	if _, ok := nilCache.Get(key); ok {
		t.Fatal("nil cache served a hit")
	}
	if st := nilCache.Stats(); st != (plancache.MemStats{}) {
		t.Fatalf("nil cache stats = %+v, want zero", st)
	}
}

// TestMemCacheConcurrent hammers Get and Put on overlapping keys from
// many goroutines — the -race backstop for the cache's locking, mirroring
// a parallel sweep whose workers share one in-process cache.
func TestMemCacheConcurrent(t *testing.T) {
	topo := topology.Torus(4, 4, cfg())
	plans := []*collective.Schedule{
		build(t, topo, 1024),
		build(t, topo, 2048),
		build(t, topo, 4096),
	}
	keys := []string{
		plancache.Key(topo, "multitree", 1024),
		plancache.Key(topo, "multitree", 2048),
		plancache.Key(topo, "multitree", 4096),
	}
	// Tight cap keeps eviction churning under the race detector too.
	m := plancache.NewMemCache(plans[0].MemBytes() + plans[1].MemBytes())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g + i) % len(keys)
				if got, ok := m.Get(keys[k]); ok {
					if got != plans[k] {
						t.Errorf("key %d returned the wrong plan", k)
						return
					}
				} else {
					m.Put(keys[k], plans[k])
				}
			}
		}(g)
	}
	wg.Wait()
	st := m.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatalf("stats = %+v, want traffic", st)
	}
}
