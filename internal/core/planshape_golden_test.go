package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cq"
	"repro/internal/dataset"
	"repro/internal/queries"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestPlanShapeGolden pins the planner's output per (query shape,
// orderer): the chosen variable order and the TD silhouette (bag count,
// max adhesion) over a fixed dataset. Any change to the cost model, the
// greedy ranking rules, or TD enumeration that moves a plan shows up as
// a diff against testdata/planshape.golden — regenerate deliberately
// with `go test ./internal/core -run PlanShapeGolden -update` and read
// the diff before committing it. The adaptive orderer is pinned twice:
// bare (identical to greedy by contract) and with a demoted variable,
// the re-plan input that must reorder the tail.
func TestPlanShapeGolden(t *testing.T) {
	db := dataset.TriadicPA(120, 3, 0.4, 4177).DB(false)

	constQ, err := cq.Parse("E(a,b), E(b,c), E(c,7)")
	if err != nil {
		t.Fatal(err)
	}
	shapes := []struct {
		name string
		q    *cq.Query
	}{
		{"triangle", queries.Clique(3)},
		{"4-clique", queries.Clique(4)},
		{"4-path", queries.Path(4)},
		{"4-cycle", queries.Cycle(4)},
		{"5-path", queries.Path(5)},
		{"lollipop(3,2)", queries.Lollipop(3, 2)},
		{"const-tail", constQ},
	}

	var sb strings.Builder
	for _, s := range shapes {
		for _, arm := range []struct {
			label string
			opts  AutoOptions
		}{
			{"cost", AutoOptions{Orderer: OrdererCost}},
			{"greedy", AutoOptions{Orderer: OrdererGreedy}},
			{"adaptive", AutoOptions{Orderer: OrdererAdaptive}},
			{"adaptive+demote", AutoOptions{Orderer: OrdererAdaptive, Demote: s.q.Vars()[:1]}},
		} {
			tree, order, err := AutoSelect(s.q, db, arm.opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", s.name, arm.label, err)
			}
			fmt.Fprintf(&sb, "%-14s %-16s order=[%s] bags=%d maxadh=%d\n",
				s.name, arm.label, strings.Join(order, " "), tree.N(), tree.MaxAdhesion())
		}
	}
	got := sb.String()

	// The layering contract stated in the Orderer docs: at this layer
	// adaptive differs from greedy only in honoring Demote.
	for _, line := range strings.Split(got, "\n") {
		if strings.Contains(line, " adaptive ") {
			if g := strings.Replace(line, " adaptive        ", " greedy          ", 1); !strings.Contains(got, g) {
				t.Errorf("adaptive plan diverges from greedy without demotion:\n%s", line)
			}
		}
	}

	golden := filepath.Join("testdata", "planshape.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/core -run PlanShapeGolden -update`): %v", err)
	}
	if got != string(want) {
		t.Errorf("plan shapes drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}
