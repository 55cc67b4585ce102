// Package plancache is a content-addressed on-disk cache of built
// schedules. Planning a 1024-node fabric costs seconds and a 4096-node
// one minutes, but the result is a pure function of (topology, algorithm,
// size, build options) — so, like TTO's pre-built MultiTree trees and
// SCCL's synthesized-algorithm interchange files, the plan is worth
// keeping. Entries are the versioned binary schedule IR of
// internal/collective/binary.go — fixed-width record arrays with a sha256
// per chunk, built for this hot path (a 1024-node plan loads in under
// 0.2 s on one core, where the JSON interchange IR, which stays the
// format for -export files, takes seconds) — one file per key:
//
//	<dir>/<sha256 of the canonical key material>.plan
//
// A hit is trusted on the entry's store-time validation summary and
// sha256 digests: the load checks the fingerprint, the summary
// cross-checks and every digest in O(bytes) instead of re-running the
// full DAG/path validation over millions of transfers, and
// Cache.VerifyFull restores the full pass. A corrupted or tampered entry,
// or one in an earlier binary-IR version, is deleted, logged, and
// reported as a miss — never an error — so one bad file costs one
// rebuild. Stores write to a temp file and rename, so concurrent writers
// (a parallel sweep planning several sizes) and crashes can never leave
// a half-written entry behind. An optional size cap evicts
// least-recently-used entries (hits refresh an entry's mtime). Entries
// are about three times the size of the older varint-coded versions (a
// mesh-32x32 plan is 73 MB), so a byte cap holds about a third as many.
package plancache

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"multitree/internal/collective"
	"multitree/internal/obs"
	"multitree/internal/topology"
)

// KeyVersion versions the key material. Bump it when the canonical
// string changes meaning, so stale entries become unreachable instead of
// wrongly shared.
const KeyVersion = "plancache/v2"

// Stats counts the cache's traffic. Monotone within one Cache lifetime.
type Stats struct {
	Hits         int64
	Misses       int64
	BytesRead    int64
	BytesWritten int64
	Evictions    int64

	// SummaryLoads counts hits accepted on the entry's embedded
	// validation summary + content digests; FullLoads counts hits that
	// ran the complete ValidateStrict pass (VerifyFull). SummaryLoads +
	// FullLoads == Hits.
	SummaryLoads int64
	FullLoads    int64
}

// Cache is an open plan-cache directory. Safe for concurrent use.
type Cache struct {
	dir      string
	maxBytes int64

	// VerifyFull makes every hit re-run the complete schedule validation
	// pass instead of trusting the entry's store-time summary — the
	// -verify-plan escape hatch. Set before use; not synchronized.
	VerifyFull bool

	// Log, when non-nil, receives warnings about discarded entries and
	// failed stores (log.Printf-shaped). The cache never fails a build:
	// every fault degrades to a miss, and Log is how the degradation
	// stays visible.
	Log func(format string, args ...any)

	mu       sync.Mutex
	stats    Stats
	inflight map[string]int // keys with a Put in progress, spared from eviction

	// evictMu serializes eviction scans: concurrent Puts racing through
	// evict would each total a directory the other is shrinking and
	// delete more than the cap requires.
	evictMu sync.Mutex
}

// Open creates dir if needed and returns the cache over it. maxBytes <= 0
// means uncapped; otherwise stores evict least-recently-used entries
// until the directory fits.
func Open(dir string, maxBytes int64) (*Cache, error) {
	if dir == "" {
		return nil, errors.New("plancache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("plancache: %w", err)
	}
	return &Cache{dir: dir, maxBytes: maxBytes, inflight: make(map[string]int)}, nil
}

// Dir returns the cache directory.
func (c *Cache) Dir() string { return c.dir }

// Stats returns a snapshot of the traffic counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Key derives the content address for one build request: the topology's
// structural sha256 fingerprint, the algorithm name and the element
// count, the only inputs that shape the schedule. Options that only
// affect how fast the planner runs — worker counts, observers — must not
// be included: they do not change the bytes built.
func Key(topo *topology.Topology, algorithm string, elems int) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\nir=%d\ntopology=%s\nalgorithm=%s\nelems=%d\n",
		KeyVersion, collective.BinaryIRVersion, collective.TopologyFingerprint(topo), algorithm, elems)
	return hex.EncodeToString(h.Sum(nil))
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".plan")
}

func (c *Cache) logf(format string, args ...any) {
	if c.Log != nil {
		c.Log(format, args...)
	}
}

// GetOptions tunes one cache load. The zero value is a plain
// single-threaded load.
type GetOptions struct {
	// Observer receives the load's planner phases (decode, validate).
	Observer obs.PlanObserver

	// Workers bounds the decode fan-out, exactly as
	// collective.BinaryImportOptions.Workers: chunks of the entry
	// decode concurrently on up to Workers goroutines, and the
	// materialized schedule is byte-identical at any count. <= 1 decodes
	// sequentially.
	Workers int
}

// Get loads the entry for key onto topo, returning the schedule and the
// IR bytes read. ok = false is a miss, never an error: the entry was
// absent, unreadable, or failed validation; invalid entries are deleted
// and logged so one corrupt file costs one rebuild, not every future
// run. The entry is read chunk by chunk with positioned reads;
// nothing materializes the whole file.
func (c *Cache) Get(key string, topo *topology.Topology, opts GetOptions) (s *collective.Schedule, bytesRead int64, ok bool) {
	f, err := os.Open(c.path(key))
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			c.logf("plancache: discarding unreadable entry %s: %v", key, err)
			os.Remove(c.path(key))
		}
		c.count(func(s *Stats) { s.Misses++ })
		return nil, 0, false
	}
	defer f.Close()
	fi, err := f.Stat()
	if err == nil {
		s, err = collective.ImportBinaryInto(f, fi.Size(), topo, collective.BinaryImportOptions{
			VerifyFull: c.VerifyFull,
			Observer:   opts.Observer,
			Workers:    opts.Workers,
		})
	}
	if err != nil {
		c.logf("plancache: discarding invalid entry %s: %v (rebuilding)", key, err)
		os.Remove(c.path(key))
		c.count(func(s *Stats) { s.Misses++ })
		return nil, 0, false
	}
	// A hit is a use: refresh the mtime so LRU eviction spares it. A
	// failed refresh (read-only cache dir) must not stay silent — it
	// quietly degrades LRU into evict-hottest, since the entries being
	// hit keep their stale mtimes.
	size := fi.Size()
	now := time.Now()
	if err := os.Chtimes(c.path(key), now, now); err != nil {
		c.logf("plancache: cannot refresh mtime of %s: %v (LRU may evict hot entries)", key, err)
	}
	c.count(func(st *Stats) {
		st.Hits++
		st.BytesRead += size
		if c.VerifyFull {
			st.FullLoads++
		} else {
			st.SummaryLoads++
		}
	})
	return s, size, true
}

// Put stores the schedule under key, atomically (temp file + rename),
// then enforces the size cap; it returns the IR bytes written. The IR
// streams straight into the temp file, each chunk digested as it goes
// by — one pass over the entry instead of encode, hash, write. Failures are logged and
// reported; the caller already holds the built schedule, so nothing is
// lost.
func (c *Cache) Put(key string, s *collective.Schedule) (int64, error) {
	c.mu.Lock()
	c.inflight[key]++
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		if c.inflight[key]--; c.inflight[key] == 0 {
			delete(c.inflight, key)
		}
		c.mu.Unlock()
	}()
	tmp, err := os.CreateTemp(c.dir, "put-*.tmp")
	if err != nil {
		c.logf("plancache: not storing %s: %v", key, err)
		return 0, err
	}
	err = collective.ExportBinary(tmp, s)
	var n int64
	if err == nil {
		n, err = tmp.Seek(0, io.SeekEnd)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), c.path(key))
	}
	if err != nil {
		os.Remove(tmp.Name())
		c.logf("plancache: not storing %s: %v", key, err)
		return 0, err
	}
	c.count(func(st *Stats) { st.BytesWritten += n })
	c.evict(key)
	return n, nil
}

// evict deletes least-recently-used entries until the directory fits the
// cap. It never touches the just-written key, nor any key with a Put
// still in flight — two concurrent Puts under a tight cap must not evict
// each other's fresh entries before their writers return. Scans are
// serialized, and the LRU order breaks equal-mtime ties by name, so
// eviction order is deterministic on filesystems with coarse timestamps.
func (c *Cache) evict(keep string) {
	if c.maxBytes <= 0 {
		return
	}
	c.evictMu.Lock()
	defer c.evictMu.Unlock()
	spared := map[string]bool{keep + ".plan": true}
	c.mu.Lock()
	for k := range c.inflight {
		spared[k+".plan"] = true
	}
	c.mu.Unlock()
	type entry struct {
		name  string
		size  int64
		mtime int64
	}
	dirents, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	var entries []entry
	var total int64
	for _, de := range dirents {
		if de.IsDir() || filepath.Ext(de.Name()) != ".plan" {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		total += info.Size()
		entries = append(entries, entry{de.Name(), info.Size(), info.ModTime().UnixNano()})
	}
	if total <= c.maxBytes {
		return
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].mtime != entries[j].mtime {
			return entries[i].mtime < entries[j].mtime
		}
		return entries[i].name < entries[j].name
	})
	for _, e := range entries {
		if total <= c.maxBytes {
			return
		}
		if spared[e.name] {
			continue
		}
		if os.Remove(filepath.Join(c.dir, e.name)) == nil {
			total -= e.size
			c.count(func(st *Stats) { st.Evictions++ })
		}
	}
}

func (c *Cache) count(f func(*Stats)) {
	c.mu.Lock()
	f(&c.stats)
	c.mu.Unlock()
}
