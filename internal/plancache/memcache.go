package plancache

import (
	"container/list"
	"sync"

	"multitree/internal/collective"
)

// MemStats counts the decoded-plan memory cache's traffic. Monotone
// counters plus the current resident size, all within one MemCache
// lifetime.
type MemStats struct {
	Hits      int64
	Misses    int64
	Evictions int64

	// Bytes and Entries describe the cache's current contents: the sum
	// of the resident costs (Schedule.MemBytes) of the cached plans and
	// how many plans are held.
	Bytes   int64
	Entries int64
}

// MemCache is an in-process LRU of decoded schedules, keyed by the same
// content address as the on-disk Cache. It sits above the disk tier: a
// memory hit skips the file open, the chunk reads, the record decode,
// and the hash verification entirely — the plan was verified when it
// entered the process and memory is trusted after that, the same
// contract the planner applies to a schedule it just built.
//
// Cached schedules are shared: Get returns the same *Schedule to every
// caller, so entries are read-only by contract. Every current consumer
// already treats built plans as immutable (simulation, export, and
// analysis all read), matching the shared use.
//
// Safe for concurrent use.
type MemCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used
	entries  map[string]*list.Element
	stats    MemStats
}

type memEntry struct {
	key  string
	s    *collective.Schedule
	cost int64
}

// NewMemCache returns a decoded-plan cache holding at most maxBytes of
// materialized schedules (Schedule.MemBytes costs). maxBytes <= 0
// disables the cache: Get always misses and Put is a no-op, so callers
// can thread one handle unconditionally.
func NewMemCache(maxBytes int64) *MemCache {
	return &MemCache{
		maxBytes: maxBytes,
		ll:       list.New(),
		entries:  make(map[string]*list.Element),
	}
}

// Get returns the cached schedule for key, refreshing its LRU position.
// The returned schedule is shared — treat it as read-only.
func (m *MemCache) Get(key string) (*collective.Schedule, bool) {
	if m == nil {
		return nil, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[key]
	if !ok {
		m.stats.Misses++
		return nil, false
	}
	m.ll.MoveToFront(el)
	m.stats.Hits++
	return el.Value.(*memEntry).s, true
}

// Put caches s under key, evicting least-recently-used plans until the
// byte cap holds. A plan too large to ever fit is skipped outright
// rather than flushing the whole cache for a single entry that would
// itself be evicted by the next Put. Re-putting an existing key
// refreshes the entry (the schedule for a content address is unique, so
// the bytes are interchangeable).
func (m *MemCache) Put(key string, s *collective.Schedule) {
	if m == nil || m.maxBytes <= 0 || s == nil {
		return
	}
	cost := s.MemBytes()
	if cost > m.maxBytes {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[key]; ok {
		e := el.Value.(*memEntry)
		m.bytes += cost - e.cost
		e.s, e.cost = s, cost
		m.ll.MoveToFront(el)
	} else {
		m.entries[key] = m.ll.PushFront(&memEntry{key: key, s: s, cost: cost})
		m.bytes += cost
	}
	for m.bytes > m.maxBytes {
		el := m.ll.Back()
		if el == nil {
			break
		}
		e := m.ll.Remove(el).(*memEntry)
		delete(m.entries, e.key)
		m.bytes -= e.cost
		m.stats.Evictions++
	}
	m.stats.Bytes = m.bytes
	m.stats.Entries = int64(len(m.entries))
}

// Stats returns a snapshot of the cache's counters and current size.
func (m *MemCache) Stats() MemStats {
	if m == nil {
		return MemStats{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stats
	st.Bytes = m.bytes
	st.Entries = int64(len(m.entries))
	return st
}
