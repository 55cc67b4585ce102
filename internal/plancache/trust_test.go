package plancache_test

// Tests of the trusted-load path: entries are accepted on their
// store-time validation summary + content digests, VerifyFull runs the
// full validation pass instead, and any tampering — even tampering that
// leaves the summary intact — or a retired format version degrades to a
// rebuild, never a wrong schedule.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"multitree/internal/obs"
	"multitree/internal/plancache"
	"multitree/internal/topology"
)

// TestSummaryValidatedHit: a freshly stored entry loads back on the
// summary path, and the stats say so.
func TestSummaryValidatedHit(t *testing.T) {
	c, err := plancache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	topo := topology.Torus(4, 4, cfg())
	key := plancache.Key(topo, "multitree", 1024)
	if _, err := c.Put(key, build(t, topo, 1024)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Get(key, topo, plancache.GetOptions{}); !ok {
		t.Fatal("miss after Put")
	}
	st := c.Stats()
	if st.SummaryLoads != 1 || st.FullLoads != 0 {
		t.Fatalf("stats = %+v, want the hit summary-validated", st)
	}
}

// TestVerifyFullHit: with VerifyFull set, the same entry takes the full
// validation pass instead, as the load's validate phase reports.
func TestVerifyFullHit(t *testing.T) {
	c, err := plancache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	c.VerifyFull = true
	topo := topology.Torus(4, 4, cfg())
	key := plancache.Key(topo, "multitree", 1024)
	if _, err := c.Put(key, build(t, topo, 1024)); err != nil {
		t.Fatal(err)
	}
	prof := obs.NewPlanProfile()
	if _, _, ok := c.Get(key, topo, plancache.GetOptions{Observer: prof}); !ok {
		t.Fatal("miss after Put")
	}
	st := c.Stats()
	if st.FullLoads != 1 || st.SummaryLoads != 0 {
		t.Fatalf("stats = %+v, want the hit full-validated", st)
	}
	for _, ph := range prof.Phases() {
		if ph.Phase == obs.PhaseValidate && (ph.Counters.FullValidations != 1 || ph.Counters.SummaryValidations != 0) {
			t.Fatalf("validate counters %+v, want one full validation", ph.Counters)
		}
	}
}

// TestStaleVersionFullValidation: an entry of a retired binary-IR version
// (here a version-1 header under a live key) is not rescued by the full
// validation pass. With VerifyFull set, the load refuses it before any
// validation runs. The entry is logged with a re-export notice, deleted
// and counted as a miss, and a re-store then loads through the full pass.
func TestStaleVersionFullValidation(t *testing.T) {
	dir := t.TempDir()
	c, err := plancache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.VerifyFull = true
	var warnings []string
	c.Log = func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	}
	topo := topology.Torus(4, 4, cfg())
	s := build(t, topo, 1024)
	key := plancache.Key(topo, "multitree", 1024)
	if _, err := c.Put(key, s); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key+".plan")
	stale, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stale[4] = 1
	if err := os.WriteFile(path, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Get(key, topo, plancache.GetOptions{}); ok {
		t.Fatal("stale-version entry served as a hit")
	}
	if st := c.Stats(); st.FullLoads != 0 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want one miss and no full validation", st)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "version 1") || !strings.Contains(warnings[0], "re-export") {
		t.Fatalf("warnings = %q, want one discard warning naming version 1 and a re-export", warnings)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("stale-version entry not deleted")
	}
	if _, err := c.Put(key, s); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Get(key, topo, plancache.GetOptions{}); !ok {
		t.Fatal("miss after re-store")
	}
	if st := c.Stats(); st.Hits != 1 || st.FullLoads != 1 {
		t.Fatalf("stats = %+v, want the re-stored entry full-validated", st)
	}
}

// TestTamperedEntryRebuilt: flipping one bit of a stored entry's
// record arrays — leaving the header and validation summary intact —
// is caught (by the chunk digest when the record stays in range, by the
// decoder otherwise), and the entry degrades to a logged miss plus a
// clean re-store. No byte flip may ever serve as a hit.
func TestTamperedEntryRebuilt(t *testing.T) {
	dir := t.TempDir()
	c, err := plancache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var warnings []string
	c.Log = func(format string, args ...any) {
		warnings = append(warnings, format)
	}
	topo := topology.Torus(4, 4, cfg())
	s := build(t, topo, 1024)
	key := plancache.Key(topo, "multitree", 1024)
	if _, err := c.Put(key, s); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key+".plan")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a low bit deep in the record arrays: the value stays in
	// range, so the summary cross-checks pass and only the chunk digest
	// can notice.
	bad := bytes.Clone(good)
	bad[len(bad)-len(bad)/4] ^= 0x01
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Get(key, topo, plancache.GetOptions{}); ok {
		t.Fatal("tampered entry served as a hit")
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "discarding invalid entry") {
		t.Fatalf("warnings = %q, want one discard warning", warnings)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("tampered entry not deleted")
	}
	// The rebuild path: a re-store round-trips and validates as summary.
	if _, err := c.Put(key, s); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Get(key, topo, plancache.GetOptions{}); !ok {
		t.Fatal("miss after re-store")
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.SummaryLoads != 1 {
		t.Fatalf("stats = %+v, want 1 tamper miss then 1 summary hit", st)
	}
}
