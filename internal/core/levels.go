package core

import "repro/internal/leapfrog"

// LevelStat aggregates one depth's intersection outcomes over an
// execution: Attempts counts the times the leapfrog scan opened the
// depth (one per distinct assignment of the shallower variables that
// reached it), Empties the subset whose k-way intersection held no
// value at all. Units are level openings, not trie accesses — a depth
// opened once over a huge range still counts 1.
type LevelStat struct {
	Attempts int64 `json:"attempts"`
	Empties  int64 `json:"empties"`
}

// AlwaysEmptyLevels returns the depths d > 0 that were attempted at
// least once and came up empty on every attempt — across every
// root-domain shard, since callers pass merged per-worker stats. These
// are the early-termination levels: the variable at such a depth never
// extended any assignment, so every visit was wasted prefix work, and
// an adaptive re-plan demotes it (td.GreedyConfig.Demote) to push the
// dead intersection earlier in the scan. Depth 0 is excluded: an empty
// root domain means the whole result is empty and no reordering helps.
func AlwaysEmptyLevels(levels []LevelStat) []int {
	var out []int
	for d, l := range levels {
		if d > 0 && l.Attempts > 0 && l.Empties == l.Attempts {
			out = append(out, d)
		}
	}
	return out
}

// levelsOf copies the runner's per-depth tallies out. Call before the
// runner is Released — the tallies are pooled state.
func levelsOf(r *leapfrog.Runner) []LevelStat {
	attempts, empties := r.LevelStats()
	levels := make([]LevelStat, len(attempts))
	for d := range attempts {
		levels[d] = LevelStat{Attempts: attempts[d], Empties: empties[d]}
	}
	return levels
}

// sumLevels adds src into dst elementwise (dst allocated on first use) —
// the cross-worker merge of per-worker tallies, so parallel executions
// report the same totals a sequential run over the union of shards would.
func sumLevels(dst, src []LevelStat) []LevelStat {
	if src == nil {
		return dst
	}
	if dst == nil {
		dst = make([]LevelStat, len(src))
	}
	for d := range src {
		dst[d].Attempts += src[d].Attempts
		dst[d].Empties += src[d].Empties
	}
	return dst
}
