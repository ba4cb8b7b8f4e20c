package queries

import (
	"testing"

	"repro/internal/cq"
)

func TestPathShape(t *testing.T) {
	q := Path(4)
	if len(q.Atoms) != 3 {
		t.Fatalf("4-path has %d atoms, want 3 (paper's E(a,b),E(b,c),E(c,d))", len(q.Atoms))
	}
	if len(q.Vars()) != 4 {
		t.Fatalf("4-path has %d vars", len(q.Vars()))
	}
	if got := q.String(); got != "E(x1,x2), E(x2,x3), E(x3,x4)" {
		t.Fatalf("4-path = %s", got)
	}
}

func TestCycleShape(t *testing.T) {
	q := Cycle(4)
	if len(q.Atoms) != 4 || len(q.Vars()) != 4 {
		t.Fatalf("4-cycle: %d atoms %d vars", len(q.Atoms), len(q.Vars()))
	}
	// The closing atom follows the paper's orientation: E(x1,x4).
	last := q.Atoms[len(q.Atoms)-1]
	if last.String() != "E(x1,x4)" {
		t.Fatalf("closing atom = %s, want E(x1,x4)", last)
	}
}

func TestCliqueShape(t *testing.T) {
	q := Clique(4)
	if len(q.Atoms) != 6 {
		t.Fatalf("4-clique has %d atoms, want 6", len(q.Atoms))
	}
}

func TestLollipopShape(t *testing.T) {
	q := Lollipop(3, 2)
	// Triangle (3 atoms) + tail (2 atoms).
	if len(q.Atoms) != 5 || len(q.Vars()) != 5 {
		t.Fatalf("{3,2}-lollipop: %d atoms %d vars", len(q.Atoms), len(q.Vars()))
	}
}

func TestRandomConnectedAndDeterministic(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		a := Random(5, 0.4, seed)
		b := Random(5, 0.4, seed)
		if a.String() != b.String() {
			t.Fatalf("seed %d: not deterministic", seed)
		}
		if len(a.Vars()) != 5 {
			t.Fatalf("seed %d: %d vars", seed, len(a.Vars()))
		}
		assertConnected(t, a)
	}
}

func assertConnected(t *testing.T, q *cq.Query) {
	t.Helper()
	edges := q.GaifmanEdges()
	n := len(q.Vars())
	adj := make([][]int, n)
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	if count != n {
		t.Fatalf("pattern not connected: %s", q)
	}
}

func TestIMDBCycleShape(t *testing.T) {
	q := IMDBCycle(2)
	if len(q.Atoms) != 4 || len(q.Vars()) != 4 {
		t.Fatalf("IMDB 4-cycle: %d atoms %d vars", len(q.Atoms), len(q.Vars()))
	}
	male, female := 0, 0
	for _, a := range q.Atoms {
		switch a.Rel {
		case MaleCastRel:
			male++
		case FemaleCastRel:
			female++
		default:
			t.Fatalf("unexpected relation %s", a.Rel)
		}
	}
	if male != 2 || female != 2 {
		t.Fatalf("male=%d female=%d atoms", male, female)
	}
	q6 := IMDBCycle(3)
	if len(q6.Atoms) != 6 || len(q6.Vars()) != 6 {
		t.Fatalf("IMDB 6-cycle: %d atoms %d vars", len(q6.Atoms), len(q6.Vars()))
	}
	assertConnected(t, q6)
}

func TestPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"path":     func() { Path(1) },
		"cycle":    func() { Cycle(2) },
		"clique":   func() { Clique(1) },
		"lollipop": func() { Lollipop(2, 1) },
		"random":   func() { Random(1, 0.5, 0) },
		"imdb":     func() { IMDBCycle(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic on invalid size", name)
				}
			}()
			f()
		}()
	}
}

func TestParse(t *testing.T) {
	for name, want := range map[string]*cq.Query{
		"4-path":       Path(4),
		"5-cycle":      Cycle(5),
		"4-clique":     Clique(4),
		"lollipop-3-2": Lollipop(3, 2),
		"rand-5-0.4-7": Random(5, 0.4, 7),
	} {
		q, err := Parse(name)
		if err != nil || q.String() != want.String() {
			t.Errorf("Parse(%q) = %v, %v; want %v", name, q, err, want)
		}
	}
	for name, msg := range map[string]string{
		"x-path":         `bad path query "x-path"`,
		"x-cycle":        `bad cycle query "x-cycle"`,
		"x-clique":       `bad clique query "x-clique"`,
		"lollipop-3-x":   `bad lollipop query "lollipop-3-x"`,
		"rand-5-p-7":     `bad random query "rand-5-p-7"`,
		"triangle":       `unknown query "triangle" (try 5-cycle, 4-path, lollipop-3-2, rand-5-0.4-7)`,
		"lollipop-3-2-1": `unknown query "lollipop-3-2-1" (try 5-cycle, 4-path, lollipop-3-2, rand-5-0.4-7)`,
	} {
		if _, err := Parse(name); err == nil || err.Error() != msg {
			t.Errorf("Parse(%q) error = %v, want %q", name, err, msg)
		}
	}
}
