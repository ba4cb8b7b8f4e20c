package stats

import "sort"

// SkewCoefficient measures how skewed a frequency distribution is as the
// ratio between the mean of the top decile and the overall mean. A uniform
// column yields ~1; heavy-tailed columns yield large values. The paper
// argues (§4) that caches keyed on high-skew attributes are more reusable;
// this metric drives the data-aware term of the TD cost model.
func SkewCoefficient(freqs []int) float64 {
	if len(freqs) == 0 {
		return 0
	}
	sorted := make([]int, len(freqs))
	copy(sorted, freqs)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	total := 0
	for _, f := range sorted {
		total += f
	}
	mean := float64(total) / float64(len(sorted))
	top := len(sorted) / 10
	if top == 0 {
		top = 1
	}
	sumTop := 0
	for _, f := range sorted[:top] {
		sumTop += f
	}
	meanTop := float64(sumTop) / float64(top)
	if mean == 0 {
		return 0
	}
	return meanTop / mean
}
