package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/faults"
	"repro/internal/relation"
	"repro/internal/trie"
)

// DB manages one data directory: per-relation snapshot + WAL pairs and
// per-(relation, column order) trie snapshots. Layout:
//
//	<dir>/<name>.snap           relation snapshot (MagicRelation)
//	<dir>/<name>.wal            write-ahead log extending that snapshot
//	<dir>/<name>.<perm>.trie    trie snapshot, perm in hex (MagicTrie)
//
// A snapshot, its WAL, and its trie files share a random Generation
// stamp; rewriting the snapshot (bootstrap or compaction) draws a new
// one, which atomically invalidates every index file of the old data.
//
// Mappings returned to callers (relations and tries alias mmap'd pages)
// are retained until Close, which the engine calls only after all
// queries have drained — so no live iterator can touch an unmapped page.
//
// DB methods are safe for concurrent use; the engine serializes updates
// itself, so per-relation WAL appends never race.
type DB struct {
	dir string

	mu       sync.Mutex
	inj      *faults.Injector
	rels     map[string]*relState
	bases    map[*relation.Relation]baseInfo
	mappings []*mapping
	stats    Stats
}

// relState tracks one persisted relation's live artifacts.
type relState struct {
	arity int
	gen   uint64
	num   uint64 // snapshot version number
	wal   *wal
}

// baseInfo locates the snapshot a resident base relation was opened from
// (or saved to), keyed by the relation's pointer identity — the same
// identity the trie registry keys on.
type baseInfo struct {
	name string
	gen  uint64
	num  uint64
}

// Record is one WAL delta to replay through Store.ApplyDelta, in append
// order.
type Record struct {
	Inserts [][]int64
	Deletes [][]int64
}

// Stats reports a DB's lifetime persistence activity. All fields are
// cumulative since Open.
type Stats struct {
	// SnapshotWrites / SnapshotBytes count relation snapshot rewrites
	// (bootstrap and compaction) and their total file bytes.
	SnapshotWrites int64 `json:"snapshot_writes"`
	SnapshotBytes  int64 `json:"snapshot_bytes"`
	// TrieWrites / TrieBytes count trie snapshot files written behind
	// registry builds.
	TrieWrites int64 `json:"trie_writes"`
	TrieBytes  int64 `json:"trie_bytes"`
	// RelationOpens / TrieOpens count snapshots served by mapping an
	// existing file — the warm-restart path that replaces text parsing,
	// respectively trie construction. MappedBytes is the total bytes
	// currently mapped (or buffered on non-unix platforms).
	RelationOpens int64 `json:"relation_opens"`
	TrieOpens     int64 `json:"trie_opens"`
	MappedBytes   int64 `json:"mapped_bytes"`
	// WALAppends / WALAppendBytes count durable delta records written;
	// WALReplayed counts records replayed on open; WALTornBytes counts
	// torn-tail bytes truncated during recovery.
	WALAppends     int64 `json:"wal_appends"`
	WALAppendBytes int64 `json:"wal_append_bytes"`
	WALReplayed    int64 `json:"wal_replayed"`
	WALTornBytes   int64 `json:"wal_torn_bytes"`
}

// Open prepares the data directory (creating it if needed) and returns
// an empty DB; relations attach via OpenRelation/SaveRelation.
func Open(dir string) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &DB{
		dir:   dir,
		rels:  make(map[string]*relState),
		bases: make(map[*relation.Relation]baseInfo),
	}, nil
}

// SetFaults installs a fault injector over the DB's file operations
// (WAL appends and fsyncs, snapshot writes/syncs/renames). Call it
// before attaching relations; a nil injector (the default) is inert.
func (db *DB) SetFaults(inj *faults.Injector) {
	db.mu.Lock()
	db.inj = inj
	for _, rs := range db.rels {
		rs.wal.inj = inj
	}
	db.mu.Unlock()
}

// faults returns the installed injector (possibly nil).
func (db *DB) faults() *faults.Injector {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.inj
}

// Close releases every WAL handle and unmaps every snapshot. Callers
// must guarantee no query still references an opened relation or trie —
// the engine closes its DB only after draining in-flight work.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	var first error
	for _, rs := range db.rels {
		if err := rs.wal.close(); err != nil && first == nil {
			first = err
		}
	}
	for _, m := range db.mappings {
		if err := m.close(); err != nil && first == nil {
			first = err
		}
	}
	db.mappings = nil
	return first
}

// Relations lists the relation names with a snapshot in the data
// directory. A non-empty result is what makes a boot warm: the engine
// opens these instead of re-reading its original dataset.
func (db *DB) Relations() ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(db.dir, "*.snap"))
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(matches))
	for _, p := range matches {
		base := strings.TrimSuffix(filepath.Base(p), ".snap")
		name, err := unescapeName(base)
		if err != nil {
			return nil, fmt.Errorf("store: stray snapshot file %s: %w", p, err)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// OpenRelation opens name's snapshot and WAL. found reports whether a
// snapshot exists; when false (cold boot) the caller loads the relation
// from its original source and persists it with SaveRelation. When true,
// the returned relation aliases the verified mapped file, num is the
// snapshot's version number, and records holds the WAL deltas to replay
// through a relation.Store built at (rel, num). arity < 0 accepts the
// verified header's arity (warm boots have no other source for it); a
// non-negative arity must match. A corrupt snapshot or WAL returns an
// error — a persistent engine refuses to start on corrupt state rather
// than serving it.
func (db *DB) OpenRelation(name string, arity int) (rel *relation.Relation, num uint64, records []Record, found bool, err error) {
	snapPath := db.path(name, "snap")
	if _, serr := os.Stat(snapPath); os.IsNotExist(serr) {
		return nil, 0, nil, false, nil
	}
	rel, h, m, err := openRelationSnapshot(snapPath, name)
	if err != nil {
		return nil, 0, nil, false, err
	}
	if arity >= 0 && int(h.Arity) != arity {
		m.close()
		return nil, 0, nil, false, fmt.Errorf("store: %s snapshot has arity %d, want %d", name, h.Arity, arity)
	}
	arity = int(h.Arity)
	w, recs, torn, err := openWAL(db.path(name, "wal"), arity, h.Generation, h.VersionNum)
	if err != nil {
		m.close()
		return nil, 0, nil, false, err
	}
	w.inj = db.faults()
	records = make([]Record, len(recs))
	for i, r := range recs {
		records[i] = Record{Inserts: r.Inserts, Deletes: r.Deletes}
	}

	db.mu.Lock()
	db.retain(m)
	db.rels[name] = &relState{arity: arity, gen: h.Generation, num: h.VersionNum, wal: w}
	db.bases[rel] = baseInfo{name: name, gen: h.Generation, num: h.VersionNum}
	db.stats.RelationOpens++
	db.stats.WALReplayed += int64(len(records))
	db.stats.WALTornBytes += torn
	db.mu.Unlock()
	return rel, h.VersionNum, records, true, nil
}

// SaveRelation writes rel as name's snapshot at version num under a
// fresh generation, resets the WAL, and registers rel as the persisted
// base. It is both the cold-boot bootstrap and the compaction rewrite;
// stale trie snapshot files of the previous generation are deleted (they
// would be refused anyway by the generation check).
func (db *DB) SaveRelation(name string, rel *relation.Relation, num uint64) error {
	gen := newGeneration()
	n, err := writeRelationSnapshot(db.path(name, "snap"), rel, num, gen, db.faults())
	if err != nil {
		return err
	}

	db.mu.Lock()
	rs := db.rels[name]
	db.mu.Unlock()
	if rs == nil {
		w, werr := createWAL(db.path(name, "wal"), rel.Arity(), gen, num)
		if werr != nil {
			return werr
		}
		w.inj = db.faults()
		rs = &relState{arity: rel.Arity(), wal: w}
	} else if err := rs.wal.reset(gen, num); err != nil {
		return err
	}

	db.mu.Lock()
	for old, info := range db.bases {
		if info.name == name {
			delete(db.bases, old)
		}
	}
	rs.gen, rs.num = gen, num
	db.rels[name] = rs
	db.bases[rel] = baseInfo{name: name, gen: gen, num: num}
	db.stats.SnapshotWrites++
	db.stats.SnapshotBytes += n
	db.mu.Unlock()

	db.removeTrieFiles(name)
	return nil
}

// AppendDelta durably logs one applied delta (fsync before return).
// version is the relation version number the delta produced. The engine
// calls it after Store.ApplyDelta reported a non-compacting change and
// before the new version becomes visible to queries, so an acknowledged
// update always survives a restart.
func (db *DB) AppendDelta(name string, version uint64, inserts, deletes [][]int64) error {
	db.mu.Lock()
	rs := db.rels[name]
	db.mu.Unlock()
	if rs == nil {
		return fmt.Errorf("store: relation %s is not persisted", name)
	}
	n, err := rs.wal.append(version, inserts, deletes)
	if err != nil {
		return err
	}
	db.mu.Lock()
	db.stats.WALAppends++
	db.stats.WALAppendBytes += int64(n)
	db.mu.Unlock()
	return nil
}

// SaveTrie persists t — a fully built index over rel permuted by perm —
// next to rel's snapshot, stamped with its generation. It reports
// whether a file was written: relations that are not persisted bases
// (patched versions, derived relations) are skipped silently, as are
// patched tries. Errors are swallowed after accounting — index files
// are an optimization and a failed write must not fail the query that
// triggered the build.
func (db *DB) SaveTrie(rel *relation.Relation, perm []int, t *trie.Trie) bool {
	db.mu.Lock()
	info, ok := db.bases[rel]
	db.mu.Unlock()
	if !ok {
		return false
	}
	n, err := writeTrieSnapshot(db.triePath(info.name, perm), t, info.num, info.gen, db.faults())
	if err != nil {
		return false
	}
	db.mu.Lock()
	db.stats.TrieWrites++
	db.stats.TrieBytes += n
	db.mu.Unlock()
	return true
}

// OpenTrie serves a registry miss from disk: if rel is a persisted base
// and a trie snapshot for perm with a matching generation exists and
// verifies, the index is reconstructed around the mapped arrays and
// returned; any miss, mismatch, or corruption returns nil and the
// registry falls through to a clean rebuild — a damaged index file is
// never served, only ignored.
func (db *DB) OpenTrie(rel *relation.Relation, perm []int) *trie.Trie {
	db.mu.Lock()
	info, ok := db.bases[rel]
	db.mu.Unlock()
	if !ok {
		return nil
	}
	t, m, err := openTrieSnapshot(db.triePath(info.name, perm), info.gen, info.num)
	if err != nil {
		return nil
	}
	db.mu.Lock()
	db.retain(m)
	db.stats.TrieOpens++
	db.mu.Unlock()
	return t
}

// Stats returns a snapshot of the DB's persistence counters.
func (db *DB) Stats() Stats {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.stats
}

// retain keeps a mapping alive until Close and accounts its bytes.
// Callers must hold db.mu.
func (db *DB) retain(m *mapping) {
	db.mappings = append(db.mappings, m)
	db.stats.MappedBytes += int64(len(m.data))
}

// path builds <dir>/<safe name>.<ext>.
func (db *DB) path(name, ext string) string {
	return filepath.Join(db.dir, safeName(name)+"."+ext)
}

// triePath builds <dir>/<safe name>.<perm hex>.trie.
func (db *DB) triePath(name string, perm []int) string {
	var sb strings.Builder
	for _, p := range perm {
		fmt.Fprintf(&sb, "%02x", p)
	}
	return filepath.Join(db.dir, safeName(name)+"."+sb.String()+".trie")
}

// removeTrieFiles deletes every trie snapshot of name (any column
// order); called after a snapshot rewrite made them stale.
func (db *DB) removeTrieFiles(name string) {
	matches, err := filepath.Glob(filepath.Join(db.dir, safeName(name)+".*.trie"))
	if err != nil {
		return
	}
	for _, p := range matches {
		os.Remove(p)
	}
}

// safeName makes a relation name filesystem-safe: letters, digits, '_',
// '-' and '.' pass through; every other byte is escaped as %XX. The
// mapping is injective, so distinct relation names never collide on
// disk.
func safeName(name string) string {
	ok := func(c byte) bool {
		return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '_' || c == '-' || c == '.'
	}
	clean := true
	for i := 0; i < len(name); i++ {
		if !ok(name[i]) || name[i] == '%' {
			clean = false
			break
		}
	}
	if clean && name != "" {
		return name
	}
	var sb strings.Builder
	for i := 0; i < len(name); i++ {
		if ok(name[i]) && name[i] != '%' {
			sb.WriteByte(name[i])
		} else {
			fmt.Fprintf(&sb, "%%%02X", name[i])
		}
	}
	if sb.Len() == 0 {
		// "%-" cannot be produced by the %XX escapes ('-' is not hex),
		// so the empty name stays injective and round-trips.
		return "%-"
	}
	return sb.String()
}

// unescapeName inverts safeName; it errors on byte sequences safeName
// cannot produce (stray files in the data directory).
func unescapeName(s string) (string, error) {
	if s == "%-" {
		return "", nil
	}
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '%' {
			sb.WriteByte(s[i])
			continue
		}
		if i+2 >= len(s) {
			return "", fmt.Errorf("truncated %%XX escape in %q", s)
		}
		hi, lo := unhex(s[i+1]), unhex(s[i+2])
		if hi < 0 || lo < 0 {
			return "", fmt.Errorf("bad %%XX escape in %q", s)
		}
		sb.WriteByte(byte(hi<<4 | lo))
		i += 2
	}
	return sb.String(), nil
}

func unhex(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'A' && c <= 'F':
		return int(c-'A') + 10
	default:
		return -1
	}
}
