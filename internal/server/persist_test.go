package server

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/relation"
)

const triangles = "E(x,y), E(y,z), E(z,x)"

func testLoader(t *testing.T, calls *int) func() (*relation.DB, error) {
	t.Helper()
	return func() (*relation.DB, error) {
		if calls != nil {
			*calls++
		}
		return relation.NewDB(relation.MustNew("E", 2, [][]int64{
			{1, 2}, {2, 3}, {3, 1}, {2, 1}, {4, 1}, {1, 4}, {4, 2},
		})), nil
	}
}

// TestWarmRestart pins the tentpole end to end: a restarted engine over
// a populated data directory answers its first query with zero trie
// builds (snapshot mmap'd, index files opened), with the WAL replay
// preserving an update applied before the restart. Answers across
// further updates and boots are TestServiceLattice's (internal/cluster).
func TestWarmRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, DataDir: dir}
	calls := 0
	load := testLoader(t, &calls)

	e1, warm, err := OpenEngine(cfg, load)
	if err != nil {
		t.Fatal(err)
	}
	if warm || calls != 1 {
		t.Fatalf("first boot: warm=%v loads=%d, want cold with one load", warm, calls)
	}
	cold, err := e1.Do(Request{Query: triangles})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.Counters.TrieBuilds == 0 {
		t.Fatal("cold boot built no tries")
	}
	// One tuple stays under the compaction crossover, so this lands in
	// the WAL (a bigger delta would compact into a fresh snapshot —
	// covered by TestWarmRestartAfterCompaction).
	if _, err := e1.Update(UpdateRequest{Relation: "E", Inserts: [][]int64{{3, 4}}}); err != nil {
		t.Fatal(err)
	}
	upd, err := e1.Do(Request{Query: triangles})
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	e2, warm, err := OpenEngine(cfg, load)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if !warm || calls != 1 {
		t.Fatalf("second boot: warm=%v loads=%d, want warm with no new load", warm, calls)
	}
	first, err := e2.Do(Request{Query: triangles})
	if err != nil {
		t.Fatal(err)
	}
	if first.Count != upd.Count {
		t.Fatalf("warm count %d != pre-restart count %d (wal replay lost the update?)", first.Count, upd.Count)
	}
	if b := first.Stats.Counters.TrieBuilds; b != 0 {
		t.Fatalf("warm first query built %d tries, want 0", b)
	}
	if o := first.Stats.Counters.TrieOpens; o == 0 {
		t.Fatal("warm first query opened no persisted indices")
	}
	s := e2.Stats()
	if s.Persistence == nil {
		t.Fatal("persistent engine reports no persistence stats")
	}
	if s.Persistence.RelationOpens == 0 || s.Persistence.TrieOpens == 0 {
		t.Fatalf("persistence stats = %+v, want relation and trie opens", *s.Persistence)
	}
	if s.Persistence.WALReplayed == 0 {
		t.Fatalf("persistence stats = %+v, want replayed wal records", *s.Persistence)
	}
	if s.Registry.Opens == 0 {
		t.Fatalf("registry stats = %+v, want opens > 0", s.Registry)
	}
	if len(s.Relations) != 1 || s.Relations[0].Version != 1 {
		t.Fatalf("warm inventory = %+v, want E at version 1", s.Relations)
	}
}

// TestWarmRestartAfterCompaction: deltas past the crossover rewrite the
// snapshot (fresh generation); the next boot opens the compacted base
// with an empty WAL and old index files are not served.
func TestWarmRestartAfterCompaction(t *testing.T) {
	dir := t.TempDir()
	// CompactFraction so low every applied delta compacts.
	cfg := Config{Workers: 1, DataDir: dir, CompactFraction: 0.0001}
	e1, _, err := OpenEngine(cfg, testLoader(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Do(Request{Query: triangles}); err != nil {
		t.Fatal(err)
	}
	res, err := e1.Update(UpdateRequest{Relation: "E", Inserts: [][]int64{{5, 6}, {6, 5}}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Compacted {
		t.Fatalf("update did not compact: %+v", res)
	}
	want, err := e1.Do(Request{Query: triangles})
	if err != nil {
		t.Fatal(err)
	}
	e1.Close()

	e2, warm, err := OpenEngine(cfg, testLoader(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	got, err := e2.Do(Request{Query: triangles})
	if err != nil {
		t.Fatal(err)
	}
	if !warm || got.Count != want.Count {
		t.Fatalf("warm=%v count=%d, want %d", warm, got.Count, want.Count)
	}
	if s := e2.Stats(); s.Persistence.WALReplayed != 0 {
		t.Fatalf("compacted boot replayed %d wal records, want 0", s.Persistence.WALReplayed)
	}
}

// TestCrashRecoveryTornWAL simulates dying mid-append: garbage after the
// last fsync'd record must be truncated away, and every acknowledged
// update must still replay.
func TestCrashRecoveryTornWAL(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, DataDir: dir}
	e1, _, err := OpenEngine(cfg, testLoader(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Update(UpdateRequest{Relation: "E", Inserts: [][]int64{{3, 4}}}); err != nil {
		t.Fatal(err)
	}
	want, err := e1.Do(Request{Query: triangles})
	if err != nil {
		t.Fatal(err)
	}
	e1.Close()

	// The crash: a torn record tail lands after the acknowledged one.
	walPath := filepath.Join(dir, "E.wal")
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xFF, 0x00, 0x00, 0x00, 0xAA, 0xBB}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	e2, warm, err := OpenEngine(cfg, testLoader(t, nil))
	if err != nil {
		t.Fatalf("boot after torn append: %v", err)
	}
	defer e2.Close()
	got, err := e2.Do(Request{Query: triangles})
	if err != nil {
		t.Fatal(err)
	}
	if !warm || got.Count != want.Count {
		t.Fatalf("warm=%v count=%d, want %d", warm, got.Count, want.Count)
	}
	if s := e2.Stats(); s.Persistence.WALTornBytes == 0 {
		t.Fatal("torn tail not detected")
	}
}

// TestCrashRecoveryCorruptState: bit flips in durable state must refuse
// the boot (snapshot, WAL record) — corrupt data is never served.
func TestCrashRecoveryCorruptState(t *testing.T) {
	build := func(t *testing.T) string {
		dir := t.TempDir()
		e, _, err := OpenEngine(Config{Workers: 1, DataDir: dir}, testLoader(t, nil))
		if err != nil {
			t.Fatal(err)
		}
		// The query triggers the full builds whose write-behind persists
		// the trie files the fall-back subtest corrupts.
		if _, err := e.Do(Request{Query: triangles}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Update(UpdateRequest{Relation: "E", Inserts: [][]int64{{9, 9}}}); err != nil {
			t.Fatal(err)
		}
		e.Close()
		return dir
	}
	flip := func(t *testing.T, path string, back int) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)-back] ^= 0x04
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("snapshot", func(t *testing.T) {
		dir := build(t)
		flip(t, filepath.Join(dir, "E.snap"), 30)
		if _, _, err := OpenEngine(Config{Workers: 1, DataDir: dir}, testLoader(t, nil)); err == nil {
			t.Fatal("corrupt snapshot served")
		}
	})
	t.Run("wal-record", func(t *testing.T) {
		dir := build(t)
		flip(t, filepath.Join(dir, "E.wal"), 5)
		if _, _, err := OpenEngine(Config{Workers: 1, DataDir: dir}, testLoader(t, nil)); err == nil {
			t.Fatal("corrupt wal record replayed")
		}
	})
	t.Run("trie-file-falls-back", func(t *testing.T) {
		// A corrupt index file is not fatal: the engine rebuilds.
		dir := build(t)
		matches, err := filepath.Glob(filepath.Join(dir, "E.*.trie"))
		if err != nil || len(matches) == 0 {
			t.Fatalf("no trie files persisted: %v %v", matches, err)
		}
		for _, m := range matches {
			flip(t, m, 25)
		}
		e, warm, err := OpenEngine(Config{Workers: 1, DataDir: dir}, testLoader(t, nil))
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		resp, err := e.Do(Request{Query: triangles})
		if err != nil {
			t.Fatal(err)
		}
		if !warm || resp.Stats.Counters.TrieBuilds == 0 {
			t.Fatalf("warm=%v builds=%d, want a clean rebuild fallback", warm, resp.Stats.Counters.TrieBuilds)
		}
	})
}

// TestMemoryOnlyEngineUnchanged: without DataDir, OpenEngine is plain
// NewEngine — no files, no persistence stats, Close a no-op.
func TestMemoryOnlyEngineUnchanged(t *testing.T) {
	e, warm, err := OpenEngine(Config{Workers: 1}, testLoader(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		t.Fatal("memory-only engine reported warm")
	}
	if _, err := e.Do(Request{Query: triangles}); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Persistence != nil {
		t.Fatal("memory-only engine reports persistence stats")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}
