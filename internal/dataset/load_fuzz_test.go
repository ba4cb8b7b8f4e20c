package dataset

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// FuzzLoad: Load reads the edge list a user names (-data on cltj and
// cltjd), so it must never panic. An accepted graph has no negative id,
// N is one more than the largest id its lines name, and written back one
// edge per line it loads to the identical graph.
func FuzzLoad(f *testing.F) {
	for _, seed := range []string{
		"0 1\n1 2\n0 1\n",
		"# SNAP header\n\n3\t4\n4 3 0.5\n",
		"7 7\n0 1\n",
		"+1 -0\r\n",
		"0 9223372036854775806\n",
		"0 9223372036854775807\n",
		"-1 2\n",
		"1\n",
		"a b\n",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		g, err := Load("g", strings.NewReader(input))
		if err != nil {
			return
		}
		for _, e := range g.Edges {
			if e[0] < 0 || e[1] < 0 {
				t.Fatalf("negative id in edge %v", e)
			}
		}
		if largest := largestID(input); g.N < 0 || int64(g.N)-1 != largest {
			t.Fatalf("N = %d, largest id %d", g.N, largest)
		}
		// A self-loop on the last node names it without adding an edge
		// (Load drops self-loops), so the written-back file keeps N.
		var text strings.Builder
		for _, e := range g.Edges {
			fmt.Fprintf(&text, "%d %d\n", e[0], e[1])
		}
		if g.N > 0 {
			fmt.Fprintf(&text, "%d %d\n", g.N-1, g.N-1)
		}
		back, err := Load("g", strings.NewReader(text.String()))
		if err != nil {
			t.Fatalf("re-serialized graph refused: %v\n%s", err, text.String())
		}
		if back.N != g.N || !reflect.DeepEqual(back.Edges, g.Edges) {
			t.Fatalf("round trip changed the graph: N %d -> %d, edges %v -> %v", g.N, back.N, g.Edges, back.Edges)
		}
	})
}

// largestID is the largest id in the first two fields of input's data
// lines, or -1 if it has none; it is called only on accepted input.
func largestID(input string) int64 {
	max := int64(-1)
	for _, line := range strings.Split(input, "\n") {
		text := strings.TrimSpace(line)
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		for _, f := range strings.Fields(text)[:2] {
			if v, _ := strconv.ParseInt(f, 10, 64); v > max {
				max = v
			}
		}
	}
	return max
}
