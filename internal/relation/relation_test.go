package relation

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestNewSortsAndDedupes(t *testing.T) {
	r := MustNew("R", 2, [][]int64{{3, 1}, {1, 2}, {3, 1}, {1, 1}, {1, 2}})
	want := [][]int64{{1, 1}, {1, 2}, {3, 1}}
	if got := r.Tuples(); !reflect.DeepEqual(got, want) {
		t.Fatalf("tuples = %v, want %v", got, want)
	}
	if r.Len() != 3 || r.Arity() != 2 || r.Name() != "R" {
		t.Fatalf("metadata wrong: len=%d arity=%d name=%q", r.Len(), r.Arity(), r.Name())
	}
}

func TestNewRejectsBadTuples(t *testing.T) {
	if _, err := New("R", 2, [][]int64{{1, 2, 3}}); err == nil {
		t.Fatal("want error for wrong-length tuple")
	}
	if _, err := New("R", -1, nil); err == nil {
		t.Fatal("want error for negative arity")
	}
}

func TestContains(t *testing.T) {
	r := MustNew("R", 2, [][]int64{{1, 2}, {2, 3}, {5, 0}})
	for _, tc := range []struct {
		tup  []int64
		want bool
	}{
		{[]int64{1, 2}, true},
		{[]int64{2, 3}, true},
		{[]int64{5, 0}, true},
		{[]int64{0, 0}, false},
		{[]int64{5, 1}, false},
		{[]int64{1}, false},
	} {
		if got := r.Contains(tc.tup); got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.tup, got, tc.want)
		}
	}
}

func TestCompareTuples(t *testing.T) {
	cases := []struct {
		a, b []int64
		want int
	}{
		{[]int64{1, 2}, []int64{1, 2}, 0},
		{[]int64{1, 2}, []int64{1, 3}, -1},
		{[]int64{2, 0}, []int64{1, 9}, 1},
		{nil, nil, 0},
	}
	for _, tc := range cases {
		if got := CompareTuples(tc.a, tc.b); got != tc.want {
			t.Errorf("CompareTuples(%v,%v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestPermute(t *testing.T) {
	r := MustNew("R", 3, [][]int64{{1, 2, 3}, {4, 5, 6}})
	p, err := r.Permute([]int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int64{{3, 1, 2}, {6, 4, 5}}
	if got := p.Tuples(); !reflect.DeepEqual(got, want) {
		t.Fatalf("permuted = %v, want %v", got, want)
	}
	if _, err := r.Permute([]int{0, 0, 1}); err == nil {
		t.Fatal("want error for repeated permutation index")
	}
	if _, err := r.Permute([]int{0, 1}); err == nil {
		t.Fatal("want error for short permutation")
	}
}

func TestProjectDedupes(t *testing.T) {
	r := MustNew("R", 2, [][]int64{{1, 7}, {1, 8}, {2, 7}})
	p, err := r.Project([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int64{{1}, {2}}
	if got := p.Tuples(); !reflect.DeepEqual(got, want) {
		t.Fatalf("projected = %v, want %v", got, want)
	}
	if _, err := r.Project([]int{2}); err == nil {
		t.Fatal("want error for out-of-range column")
	}
}

func TestSelect(t *testing.T) {
	r := MustNew("R", 3, [][]int64{{1, 1, 5}, {1, 2, 5}, {2, 2, 2}, {3, 3, 3}})
	s, err := r.Select(map[int]int64{2: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("const select kept %d tuples, want 2", s.Len())
	}
	eq, err := r.Select(nil, [][]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int64{{1, 1, 5}, {2, 2, 2}, {3, 3, 3}}
	if got := eq.Tuples(); !reflect.DeepEqual(got, want) {
		t.Fatalf("equality select = %v, want %v", got, want)
	}
	both, err := r.Select(map[int]int64{2: 2}, [][]int{{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if both.Len() != 1 || both.Tuple(0)[0] != 2 {
		t.Fatalf("combined select = %v", both.Tuples())
	}
}

// plainSkew is the skew coefficient of column col's value frequencies,
// counted over a copy of r's tuples.
func plainSkew(r *Relation, col int) float64 {
	counts := map[int64]int{}
	for _, tup := range r.Tuples() {
		counts[tup[col]]++
	}
	freqs := make([]int, 0, len(counts))
	for _, n := range counts {
		freqs = append(freqs, n)
	}
	return stats.SkewCoefficient(freqs)
}

// TestColumnSkewMemo holds the memoized per-column skew to the plain
// computation over a copy of the tuples, from several goroutines at once
// (the planner's callers share one immutable relation).
func TestColumnSkewMemo(t *testing.T) {
	r := MustNew("R", 2, [][]int64{{1, 1}, {1, 2}, {1, 3}, {2, 4}, {3, 5}, {3, 6}})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for col := 0; col < 2; col++ {
				if got, want := r.ColumnSkew(col), plainSkew(r, col); got != want {
					t.Errorf("column %d: memoized skew %v, computed %v", col, got, want)
				}
			}
		}()
	}
	wg.Wait()
	if r.ColumnSkew(0) <= r.ColumnSkew(1) {
		t.Error("column 0 repeats values and column 1 does not, yet it is not the more skewed")
	}
}

func TestZeroAryRelation(t *testing.T) {
	empty := NewBuilder("G", 0).Build()
	if empty.Len() != 0 {
		t.Fatalf("empty 0-ary relation has Len %d", empty.Len())
	}
	b := NewBuilder("G", 0)
	b.Add()
	nonEmpty := b.Build()
	if nonEmpty.Len() != 1 {
		t.Fatalf("non-empty 0-ary relation has Len %d, want 1", nonEmpty.Len())
	}
}

func TestRenameSharesData(t *testing.T) {
	r := MustNew("R", 1, [][]int64{{1}, {2}})
	s := r.Rename("S")
	if s.Name() != "S" || s.Len() != 2 {
		t.Fatalf("rename produced %q with %d tuples", s.Name(), s.Len())
	}
}

// decodeKey inverts Key given the number of values.
func decodeKey(key string, n int) []int64 {
	vals := make([]int64, n)
	for i := 0; i < n; i++ {
		off := 8 * i
		u := uint64(key[off+0]) |
			uint64(key[off+1])<<8 |
			uint64(key[off+2])<<16 |
			uint64(key[off+3])<<24 |
			uint64(key[off+4])<<32 |
			uint64(key[off+5])<<40 |
			uint64(key[off+6])<<48 |
			uint64(key[off+7])<<56
		vals[i] = int64(u)
	}
	return vals
}

func TestKeyRoundTrip(t *testing.T) {
	f := func(vals []int64) bool {
		got := decodeKey(Key(vals), len(vals))
		return reflect.DeepEqual(got, vals) || (len(vals) == 0 && len(got) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyInjective(t *testing.T) {
	f := func(a, b []int64) bool {
		if len(a) != len(b) {
			return true // only equal-length keys are ever compared
		}
		if Key(a) == Key(b) {
			return reflect.DeepEqual(a, b) || len(a) == 0
		}
		return !reflect.DeepEqual(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Build is idempotent — rebuilding from a relation's own tuples
// reproduces it exactly, and the output is always sorted and unique.
func TestBuilderProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		arity := 1 + rng.Intn(3)
		n := rng.Intn(60)
		b := NewBuilder("R", arity)
		for i := 0; i < n; i++ {
			row := make([]int64, arity)
			for j := range row {
				row[j] = int64(rng.Intn(5))
			}
			b.Add(row...)
		}
		r := b.Build()
		for i := 1; i < r.Len(); i++ {
			if CompareTuples(r.Tuple(i-1), r.Tuple(i)) >= 0 {
				t.Fatalf("trial %d: not strictly sorted at %d: %v vs %v",
					trial, i, r.Tuple(i-1), r.Tuple(i))
			}
		}
		again, err := New("R", arity, r.Tuples())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again.Tuples(), r.Tuples()) {
			t.Fatalf("trial %d: rebuild changed tuples", trial)
		}
	}
}

func TestDBOperations(t *testing.T) {
	db := NewDB(MustNew("A", 1, [][]int64{{1}}), MustNew("B", 1, nil))
	if db.Len() != 2 {
		t.Fatalf("Len = %d, want 2", db.Len())
	}
	if got := db.Names(); !reflect.DeepEqual(got, []string{"A", "B"}) {
		t.Fatalf("Names = %v", got)
	}
	if _, err := db.Get("A"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get("missing"); err == nil {
		t.Fatal("want error for missing relation")
	}
	db.Put(MustNew("A", 1, [][]int64{{1}, {2}}))
	a, _ := db.Get("A")
	if a.Len() != 2 {
		t.Fatal("Put did not replace relation")
	}
	var zero DB
	zero.Put(MustNew("C", 1, nil))
	if zero.Len() != 1 {
		t.Fatal("zero-value DB unusable")
	}
}
