package stats

import (
	"sort"
	"strings"
	"testing"
)

func TestTotalAndReset(t *testing.T) {
	c := &Counters{TrieAccesses: 3, HashAccesses: 4, TupleAccesses: 5}
	if c.Total() != 12 {
		t.Fatalf("Total = %d", c.Total())
	}
	c.Reset()
	if c.Total() != 0 || c.TrieAccesses != 0 {
		t.Fatal("Reset incomplete")
	}
	var nilC *Counters
	if nilC.Total() != 0 {
		t.Fatal("nil Total != 0")
	}
	nilC.Reset() // must not panic
	nilC.Add(c)  // must not panic
}

func TestAdd(t *testing.T) {
	a := &Counters{TrieAccesses: 1, CacheHits: 2}
	b := &Counters{TrieAccesses: 10, CacheMisses: 3, CacheInserts: 1, CacheEvictions: 1}
	a.Add(b)
	if a.TrieAccesses != 11 || a.CacheHits != 2 || a.CacheMisses != 3 {
		t.Fatalf("Add result %+v", a)
	}
	a.Add(nil)
}

func TestHitRate(t *testing.T) {
	c := &Counters{CacheHits: 3, CacheMisses: 1}
	if got := c.HitRate(); got != 0.75 {
		t.Fatalf("HitRate = %g", got)
	}
	if (&Counters{}).HitRate() != 0 {
		t.Fatal("empty HitRate != 0")
	}
	var nilC *Counters
	if nilC.HitRate() != 0 {
		t.Fatal("nil HitRate != 0")
	}
}

func TestString(t *testing.T) {
	c := &Counters{TrieAccesses: 1, HashAccesses: 2, TupleAccesses: 3, CacheHits: 4, CacheMisses: 5}
	s := c.String()
	for _, want := range []string{"trie=1", "hash=2", "tuple=3", "total=6", "hits=4", "misses=5"} {
		if !strings.Contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
}

// frequencies returns the multiset of occurrence counts of the values in
// column col (0-based) of the given tuples, sorted descending.
func frequencies(tuples [][]int64, col int) []int {
	counts := make(map[int64]int)
	for _, t := range tuples {
		counts[t[col]]++
	}
	freqs := make([]int, 0, len(counts))
	for _, n := range counts {
		freqs = append(freqs, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(freqs)))
	return freqs
}

// columnSkew computes SkewCoefficient directly for a tuple column.
func columnSkew(tuples [][]int64, col int) float64 {
	return SkewCoefficient(frequencies(tuples, col))
}

func TestFrequencies(t *testing.T) {
	tuples := [][]int64{{1, 9}, {1, 8}, {2, 9}, {1, 7}}
	freqs := frequencies(tuples, 0)
	if len(freqs) != 2 || freqs[0] != 3 || freqs[1] != 1 {
		t.Fatalf("frequencies = %v", freqs)
	}
}

func TestSkewCoefficient(t *testing.T) {
	uniform := make([]int, 100)
	for i := range uniform {
		uniform[i] = 10
	}
	if got := SkewCoefficient(uniform); got != 1 {
		t.Fatalf("uniform skew = %g, want 1", got)
	}
	skewed := make([]int, 100)
	for i := range skewed {
		skewed[i] = 1
	}
	skewed[0] = 1000
	if got := SkewCoefficient(skewed); got < 5 {
		t.Fatalf("skewed coefficient = %g, want >> 1", got)
	}
	if SkewCoefficient(nil) != 0 {
		t.Fatal("empty skew != 0")
	}
}

func TestColumnSkew(t *testing.T) {
	tuples := [][]int64{{1, 1}, {1, 2}, {1, 3}, {2, 4}, {3, 5}}
	if columnSkew(tuples, 0) <= columnSkew(tuples, 1) {
		t.Fatal("column 0 should be more skewed than column 1")
	}
}
