package server

import (
	"context"
	"testing"
)

// liveVersions snapshots the engine's pinned-version count.
func liveVersions(e *Engine) int { return e.Stats().LiveVersions }

// TestRowsPinsOneEpoch is the regression test for the Rows snapshot
// contract: a live stream answers from the single snapshot it entered
// on — a concurrent Update installs new versions for later queries but
// never mutates the stream's view — and the stream's epoch pin is
// released exactly once, whether the iteration drains or is abandoned.
func TestRowsPinsOneEpoch(t *testing.T) {
	db := testDB()
	e := NewEngine(db, Config{Workers: 2})
	stmt, err := e.Prepare(Request{Query: "E(x,y), E(y,z)", Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()

	want, err := stmt.countCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	baseline := liveVersions(e)

	// Drain a stream while updates land mid-iteration: the row count
	// must be the entry snapshot's |q(D)|, not a torn mix of versions.
	var rows int64
	updated := false
	for row, err := range stmt.Rows(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		_ = row
		rows++
		if !updated && rows == want/2 {
			// Churn the relation under the live stream: insert edges that
			// would join with everything, then delete them again.
			for _, tup := range [][]int64{{0, 1}, {1, 0}, {40000, 40001}} {
				if _, err := e.Update(UpdateRequest{Relation: "E", Inserts: [][]int64{tup}}); err != nil {
					t.Fatal(err)
				}
			}
			// The superseded entry version must stay pinned while the
			// stream holds its epoch.
			if lv := liveVersions(e); lv <= baseline {
				t.Fatalf("mid-stream: %d live versions, want > %d (entry snapshot pinned)", lv, baseline)
			}
			updated = true
		}
	}
	if !updated {
		t.Fatalf("stream too short to update mid-iteration (%d rows)", rows)
	}
	if rows != want {
		t.Fatalf("stream saw %d rows, want the entry snapshot's %d", rows, want)
	}

	// Epoch released after the drain: pins settle to the steady-state
	// inventory (current versions + patch bases), with the superseded
	// entry snapshot reclaimed.
	relCap := 2 * len(e.Stats().Relations)
	if lv := liveVersions(e); lv > relCap {
		t.Fatalf("after drain: %d live versions, want <= %d (epoch released)", lv, relCap)
	}

	// The same must hold for an abandoned iteration: break releases the
	// epoch via the iterator's cleanup, not only a full drain.
	n := 0
	for _, err := range stmt.Rows(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		if n++; n == 3 {
			break
		}
	}
	if n != 3 {
		t.Fatalf("abandoned stream yielded %d rows before break, want 3", n)
	}
	if _, err := e.Update(UpdateRequest{Relation: "E", Deletes: [][]int64{{40000, 40001}}}); err != nil {
		t.Fatal(err)
	}
	if lv := liveVersions(e); lv > relCap {
		t.Fatalf("after abandoned stream: %d live versions, want <= %d (epoch released on break)", lv, relCap)
	}

	// And for a cancelled stream: the final (nil, ctx.Err()) yield is
	// preceded by the epoch release too.
	ctx, cancel := context.WithCancel(context.Background())
	sawErr := false
	n = 0
	for _, err := range stmt.Rows(ctx) {
		if err != nil {
			sawErr = true
			break
		}
		if n++; n == 2 {
			cancel()
		}
	}
	cancel()
	if !sawErr {
		t.Fatalf("cancelled stream ended without the final error yield (%d rows)", n)
	}
	if lv := liveVersions(e); lv > relCap {
		t.Fatalf("after cancelled stream: %d live versions, want <= %d", lv, relCap)
	}
}
