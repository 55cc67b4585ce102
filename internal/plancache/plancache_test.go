package plancache_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"multitree/internal/algorithms"
	"multitree/internal/collective"
	"multitree/internal/plancache"
	"multitree/internal/topology"
)

func cfg() topology.LinkConfig { return topology.DefaultLinkConfig() }

func build(t *testing.T, topo *topology.Topology, elems int) *collective.Schedule {
	t.Helper()
	s, err := algorithms.Build(topo, "multitree", elems, algorithms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRoundTrip pins the cache's core contract: a stored schedule loads
// back with an IR encoding byte-identical to the freshly built one.
func TestRoundTrip(t *testing.T) {
	c, err := plancache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	topo := topology.Torus(4, 4, cfg())
	s := build(t, topo, 1024)
	key := plancache.Key(topo, "multitree", 1024)

	if _, _, ok := c.Get(key, topo, plancache.GetOptions{}); ok {
		t.Fatal("hit on an empty cache")
	}
	if _, err := c.Put(key, s); err != nil {
		t.Fatal(err)
	}
	got, _, ok := c.Get(key, topo, plancache.GetOptions{})
	if !ok {
		t.Fatal("miss after Put")
	}
	var want, have bytes.Buffer
	if err := collective.Export(&want, s); err != nil {
		t.Fatal(err)
	}
	if err := collective.Export(&have, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), have.Bytes()) {
		t.Fatal("cached schedule's IR differs from the built schedule's")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.BytesRead == 0 || st.BytesWritten == 0 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, nonzero bytes", st)
	}
}

// TestKeySensitivity: every schedule-shaping input must move the key;
// planner-speed knobs must not exist in the signature at all.
func TestKeySensitivity(t *testing.T) {
	torus := topology.Torus(4, 4, cfg())
	base := plancache.Key(torus, "multitree", 1024)
	for name, other := range map[string]string{
		"topology":  plancache.Key(topology.Mesh(4, 4, cfg()), "multitree", 1024),
		"algorithm": plancache.Key(torus, "ring", 1024),
		"elems":     plancache.Key(torus, "multitree", 2048),
	} {
		if other == base {
			t.Errorf("changing %s did not change the key", name)
		}
	}
	if plancache.Key(torus, "multitree", 1024) != base {
		t.Error("key is not deterministic")
	}
}

// TestCorruptEntryFallsBack: a damaged entry, or one written in a
// retired binary-IR version, is deleted, logged, and reported as a miss;
// the build that follows re-plans and stores a loadable entry.
func TestCorruptEntryFallsBack(t *testing.T) {
	topo := topology.Torus(4, 4, cfg())
	for _, tc := range []struct {
		name  string
		plant func(good []byte) []byte
		want  string // in the discard warning
	}{
		{"garbage", func([]byte) []byte { return []byte("MTIR\x03mangled garbage") }, "discarding invalid entry"},
		// The header of a version-2 entry: magic, version 2, content hash.
		{"version 2", func(good []byte) []byte {
			stale := bytes.Clone(good)
			stale[4] = 2
			return stale
		}, "re-export"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := plancache.Open(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			var warnings []string
			c.Log = func(format string, args ...any) {
				warnings = append(warnings, fmt.Sprintf(format, args...))
			}
			opts := algorithms.Options{Cache: c}
			if _, err := algorithms.Build(topo, "multitree", 1024, opts); err != nil {
				t.Fatal(err)
			}
			key := plancache.Key(topo, "multitree", 1024)
			path := filepath.Join(dir, key+".plan")
			good, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.plant(good), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, ok := c.Get(key, topo, plancache.GetOptions{}); ok {
				t.Fatal("invalid entry served as a hit")
			}
			if len(warnings) != 1 || !strings.Contains(warnings[0], "discarding invalid entry") ||
				!strings.Contains(warnings[0], tc.want) {
				t.Fatalf("warnings = %q, want one discard warning mentioning %q", warnings, tc.want)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("invalid entry not deleted")
			}
			// The rebuild path: the next build misses, re-plans and
			// stores an entry that loads again.
			if _, err := algorithms.Build(topo, "multitree", 1024, opts); err != nil {
				t.Fatal(err)
			}
			if _, _, ok := c.Get(key, topo, plancache.GetOptions{}); !ok {
				t.Fatal("miss after rebuild")
			}
			if st := c.Stats(); st.Misses != 3 || st.Hits != 1 {
				t.Fatalf("stats = %+v, want 3 misses (cold, invalid, rebuild) and 1 hit", st)
			}
		})
	}
}

// TestWrongTopologyMisses: an entry keyed for one fabric never loads
// onto another (collective.ImportBinaryInto's fingerprint check), even if
// probed with a mismatched key.
func TestWrongTopologyMisses(t *testing.T) {
	c, err := plancache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	torus := topology.Torus(4, 4, cfg())
	mesh := topology.Mesh(4, 4, cfg())
	key := plancache.Key(torus, "multitree", 1024)
	if _, err := c.Put(key, build(t, torus, 1024)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Get(key, mesh, plancache.GetOptions{}); ok {
		t.Fatal("torus entry loaded onto a mesh")
	}
}

// TestEviction: the size cap holds by deleting the least recently used
// entries, sparing the entry just written.
func TestEviction(t *testing.T) {
	dir := t.TempDir()
	topo := topology.Torus(4, 4, cfg())
	s := build(t, topo, 1024)
	var one bytes.Buffer
	if err := collective.ExportBinary(&one, s); err != nil {
		t.Fatal(err)
	}
	// Cap to two entries' worth.
	c, err := plancache.Open(dir, int64(one.Len())*2+16)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{
		plancache.Key(topo, "multitree", 1024),
		plancache.Key(topo, "multitree", 2048),
		plancache.Key(topo, "multitree", 4096),
	}
	for _, k := range keys {
		if _, err := c.Put(k, s); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok := c.Get(keys[2], topo, plancache.GetOptions{}); !ok {
		t.Fatal("just-written entry evicted")
	}
	left, err := filepath.Glob(filepath.Join(dir, "*.plan"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 2 {
		t.Fatalf("%d entries left, want 2", len(left))
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

// TestOwnWriteSurvivesTinyCap: a cap smaller than a single entry never
// deletes the entry the store just wrote — the caller is about to load
// it — though the next store reclaims the space.
func TestOwnWriteSurvivesTinyCap(t *testing.T) {
	dir := t.TempDir()
	c, err := plancache.Open(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	topo := topology.Torus(4, 4, cfg())
	s := build(t, topo, 1024)
	k1 := plancache.Key(topo, "multitree", 1024)
	k2 := plancache.Key(topo, "multitree", 2048)
	if _, err := c.Put(k1, s); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Get(k1, topo, plancache.GetOptions{}); !ok {
		t.Fatal("store evicted its own entry under a tiny cap")
	}
	if _, err := c.Put(k2, s); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Get(k2, topo, plancache.GetOptions{}); !ok {
		t.Fatal("second store evicted its own entry")
	}
	left, err := filepath.Glob(filepath.Join(dir, "*.plan"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 {
		t.Fatalf("%d entries left, want only the latest", len(left))
	}
}
