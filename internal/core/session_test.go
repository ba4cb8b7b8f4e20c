package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/queries"
	"repro/internal/stats"
)

func TestSessionCountsStayCorrect(t *testing.T) {
	g := dataset.PreferentialAttachment(100, 3, 41)
	db := g.DB(false)
	plan, err := AutoPlan(queries.Path(5), db, AutoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := plan.Count(Policy{Disabled: true}).Count
	s := plan.NewSession(Policy{})
	for i := 0; i < 3; i++ {
		if got := s.Count(); got.Count != want {
			t.Fatalf("run %d: count %d, want %d", i, got.Count, want)
		}
	}
}

func TestSessionWarmRunsCheaper(t *testing.T) {
	g := dataset.PreferentialAttachment(150, 4, 42)
	db := g.DB(false)
	var c stats.Counters
	plan, err := AutoPlan(queries.Path(5), db, AutoOptions{Counters: &c})
	if err != nil {
		t.Fatal(err)
	}
	s := plan.NewSession(Policy{})

	c.Reset()
	s.Count()
	cold := c.TrieAccesses

	c.Reset()
	s.Count()
	warm := c.TrieAccesses

	if warm >= cold {
		t.Errorf("warm run not cheaper: cold=%d warm=%d", cold, warm)
	}
	if s.CachedEntries() == 0 {
		t.Error("session retained no entries")
	}
}

func TestSessionShrink(t *testing.T) {
	g := dataset.PreferentialAttachment(120, 3, 43)
	db := g.DB(false)
	plan, err := AutoPlan(queries.Path(5), db, AutoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := plan.NewSession(Policy{})
	want := s.Count().Count
	before := s.CachedEntries()
	if before < 4 {
		t.Skip("too few entries to shrink")
	}
	target := before / 4
	if got := s.Shrink(target); got > target {
		t.Fatalf("Shrink left %d entries, want <= %d", got, target)
	}
	// Counts stay correct after an arbitrary deletion (§3.4: "the
	// algorithm allows for arbitrary replacements or deletions").
	if got := s.Count(); got.Count != want {
		t.Fatalf("post-shrink count %d, want %d", got.Count, want)
	}
	if got := s.Shrink(0); got != 0 {
		t.Fatalf("Shrink(0) left %d entries", got)
	}
	if got := s.Count(); got.Count != want {
		t.Fatalf("post-flush count %d, want %d", got.Count, want)
	}
}

// TestSessionShrinkKeepsSupport: Shrink gives back cached values, not
// the support counts — they are not charged against Capacity and are
// never evicted — so a flushed session under a support threshold
// re-caches on the very next run instead of counting sightings afresh;
// and a session that caches nothing (it holds no manager) still counts.
func TestSessionShrinkKeepsSupport(t *testing.T) {
	db := dataset.PreferentialAttachment(120, 3, 43).DB(false)
	plan, err := AutoPlan(queries.Path(5), db, AutoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := plan.Count(Policy{}).Count
	s := plan.NewSession(Policy{SupportThreshold: 3})
	var warm int
	for i := 0; i < 4; i++ {
		warm = s.Count().CachedEntries
	}
	if warm == 0 {
		t.Skip("nothing reaches the support threshold")
	}
	if got := s.Shrink(0); got != 0 {
		t.Fatalf("Shrink(0) left %d entries", got)
	}
	if res := s.Count(); res.Count != want || res.CachedEntries < warm {
		t.Fatalf("run after the flush: count %d (want %d), %d entries (had %d) — support was lost with the values",
			res.Count, want, res.CachedEntries, warm)
	}

	off := plan.NewSession(Policy{Disabled: true})
	if res := off.Count(); res.Count != want || off.CachedEntries() != 0 || off.Shrink(5) != 0 {
		t.Fatalf("disabled session: count %d (want %d), %d entries", res.Count, want, off.CachedEntries())
	}
}

func TestSessionRespectsCapacityAcrossRuns(t *testing.T) {
	g := dataset.PreferentialAttachment(120, 3, 44)
	db := g.DB(false)
	plan, err := AutoPlan(queries.Path(5), db, AutoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := plan.NewSession(Policy{Capacity: 10})
	for i := 0; i < 3; i++ {
		res := s.Count()
		if res.CachedEntries > 10 {
			t.Fatalf("run %d: %d entries exceed capacity", i, res.CachedEntries)
		}
	}
}

// TestSessionAndFactorizedHonourBatchSize pins that the entry points
// which build their executors apart from the fold and eval drivers scan
// their leaves as every other entry does: at every block length a cold
// Session.Count and an EvalFactorized reproduce the length-1 (scalar)
// result with bit-identical stats.Counters, and the session reports its
// per-depth Levels.
func TestSessionAndFactorizedHonourBatchSize(t *testing.T) {
	db := dataset.PreferentialAttachment(100, 3, 41).DB(false)
	var c stats.Counters
	plan, err := AutoPlan(queries.Path(5), db, AutoOptions{Counters: &c})
	if err != nil {
		t.Fatal(err)
	}
	run := func(bl int) (count, factorized int64, session, eval stats.Counters, levels []LevelStat) {
		atLeafLen(bl, func() {
			c.Reset()
			res := plan.NewSession(Policy{}).Count()
			count, levels, session = res.Count, res.Levels, c
			c.Reset()
			factorized = plan.EvalFactorized(Policy{}).Count()
			eval = c
		})
		return
	}
	want, wantF, wantSession, wantEval, _ := run(1)
	if want != wantF {
		t.Fatalf("scalar session count %d != factorized count %d", want, wantF)
	}
	for _, bl := range blockLens[1:] {
		got, gotF, session, eval, levels := run(bl)
		if got != want || gotF != want {
			t.Errorf("len=%d: session count %d, factorized count %d, want %d", bl, got, gotF, want)
		}
		if session != wantSession {
			t.Errorf("len=%d: session counters diverge\nblock:  %+v\nscalar: %+v", bl, session, wantSession)
		}
		if eval != wantEval {
			t.Errorf("len=%d: EvalFactorized counters diverge\nblock:  %+v\nscalar: %+v", bl, eval, wantEval)
		}
		if len(levels) == 0 {
			t.Errorf("len=%d: session count reported no Levels", bl)
		}
	}
}
