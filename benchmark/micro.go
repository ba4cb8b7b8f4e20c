package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"repro/internal/leapfrog"
	"repro/internal/relation"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/trie"
)

// microMetrics measures the layers below a query on the workload's main
// relation and its 8+8-tuple delta: trie seek/next/build/patch, a 3-way
// leapfrog intersection, the relation store's delta merge and the
// persistence layer's files. Iteration counts are fixed, so these take
// the same work on every run.
func microMetrics(inst *instance, cfg config, set func(name string, v float64, unit string)) error {
	rel, err := inst.db.Get(inst.mainRel)
	if err != nil {
		return err
	}
	adds, err := relation.New(rel.Name(), rel.Arity(), inst.inserts)
	if err != nil {
		return err
	}
	dels, err := relation.New(rel.Name(), rel.Arity(), inst.deletes)
	if err != nil {
		return err
	}
	// timed sets name to the median duration of n calls of f, in unit.
	timed := func(name, unit string, n int, f func() error) error {
		ns, err := medianOf(n, f)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		set(name, ns/nsPer[unit], unit)
		return nil
	}

	// trie: build, patch, then seeks and scans over the built index.
	var built *trie.Trie
	if err := timed("trie.build_ms", "ms", 5, func() error {
		built = trie.Build(rel, nil)
		return nil
	}); err != nil {
		return err
	}
	if err := timed("trie.patch_us", "us", 200, func() error {
		_, err := trie.BuildPatched(built, adds, dels, nil)
		return err
	}); err != nil {
		return err
	}
	seekNS, perSeek := seeks(built, rand.New(rand.NewSource(cfg.seed)))
	set("trie.seek_ns", seekNS, "ns")
	set("trie.accesses_per_seek", perSeek, "count")
	set("trie.next_ns", scan(built), "ns")

	// leapfrog: sources ∩ targets ∩ sources, the unary join of §3 on its
	// own.
	flipped, err := rel.Permute([]int{1, 0})
	if err != nil {
		return err
	}
	set("leapfrog.intersect_ns_per_key", intersect(built, trie.Build(flipped, nil)), "ns")

	// relation: the store's copy-on-write merge, applying the delta and
	// its inverse in turn so the content never drifts.
	st := relation.NewStore(rel)
	ins, del := inst.inserts, inst.deletes
	if err := timed("relation.apply_delta_us", "us", 200, func() error {
		_, changed, err := st.ApplyDelta(ins, del)
		if err == nil && !changed {
			err = fmt.Errorf("delta changed nothing")
		}
		ins, del = del, ins
		return err
	}); err != nil {
		return err
	}

	// store: the persistence layer in a temp dir under cfg.scratch with the
	// package's own flush policy (fsync per WAL append, fsync and rename
	// per snapshot). The times are this sandbox's, not a device's.
	dir, err := os.MkdirTemp(cfg.scratch, "cltjbench-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sdb, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer sdb.Close() // read back only; nothing to lose on a failed close
	if err := sdb.SaveRelation(rel.Name(), rel, 0); err != nil {
		return err
	}
	dataBytes := float64(len(rel.Data()) * 8)
	set("store.snapshot_bytes_per_data_byte", float64(sdb.Stats().SnapshotBytes)/dataBytes, "ratio")
	perm := []int{0, 1}
	if err := timed("store.save_trie_ms", "ms", 5, func() error {
		if !sdb.SaveTrie(rel, perm, built) {
			return fmt.Errorf("no file written")
		}
		return nil
	}); err != nil {
		return err
	}
	if err := timed("store.open_trie_us", "us", 20, func() error {
		if sdb.OpenTrie(rel, perm) == nil {
			return fmt.Errorf("snapshot not served")
		}
		return nil
	}); err != nil {
		return err
	}
	const appends = 50
	version := uint64(0)
	if err := timed("store.append_delta_us", "us", appends, func() error {
		version++
		return sdb.AppendDelta(rel.Name(), version, inst.inserts, inst.deletes)
	}); err != nil {
		return err
	}
	deltaBytes := float64(appends * (len(inst.inserts) + len(inst.deletes)) * rel.Arity() * 8)
	set("store.wal_bytes_per_delta_byte", float64(sdb.Stats().WALAppendBytes)/deltaBytes, "ratio")
	return nil
}

var nsPer = map[string]float64{"us": 1e3, "ms": 1e6}

// medianOf runs f n times and returns the median duration in ns, or f's
// first error.
func medianOf(n int, f func() error) (float64, error) {
	ds := make([]float64, n)
	for i := range ds {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(start).Nanoseconds())
	}
	return median(ds), nil
}

// seeks times SeekGE at both levels of t: ascending random targets at
// level 0 (the iterator never moves backwards), and under each landing
// key one seek into its children. It returns ns and charged accesses per
// seek.
func seeks(t *trie.Trie, rng *rand.Rand) (ns, accesses float64) {
	const sweeps, perSweep = 200, 256
	var k stats.Counters
	it := t.NewIteratorCounters(&k)
	span := int64(t.Len(0)) * 2 // vertex ids are dense, so this covers the keys
	targets := make([]int64, perSweep)
	n := 0
	start := time.Now()
	for s := 0; s < sweeps; s++ {
		for i := range targets {
			targets[i] = rng.Int63n(span + 1)
		}
		sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
		it.Open()
		for _, v := range targets {
			it.SeekGE(v)
			n++
			if it.AtEnd() {
				break
			}
			it.Open()
			it.SeekGE(v / 2)
			n++
			it.Up()
		}
		it.Up()
	}
	elapsed := time.Since(start)
	it.Flush()
	return float64(elapsed.Nanoseconds()) / float64(n), float64(k.TrieAccesses) / float64(n)
}

// scan walks every node of a two-level trie with Next and returns ns per
// step.
func scan(t *trie.Trie) float64 {
	const sweeps = 20
	it := t.NewIterator()
	n := 0
	start := time.Now()
	for s := 0; s < sweeps; s++ {
		for it.Open(); !it.AtEnd(); it.Next() {
			for it.Open(); !it.AtEnd(); it.Next() {
				n++
			}
			it.Up()
			n++
		}
		it.Up()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// intersect runs a 3-way Frog over the first levels of a and b and
// returns ns per matched key.
func intersect(a, b *trie.Trie) float64 {
	const sweeps = 200
	n := 0
	start := time.Now()
	for s := 0; s < sweeps; s++ {
		legs := []*trie.Iterator{a.NewIterator(), b.NewIterator(), a.NewIterator()}
		for _, it := range legs {
			it.Open()
		}
		f := leapfrog.NewFrog(legs)
		for ok := f.Init(); ok; ok = f.Next() {
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}
