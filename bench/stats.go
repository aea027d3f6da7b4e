package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail percentile:
// a percentile resting on fewer is noise, so it is refused.
const minBeyond = 10

// rank is the 1-based nearest rank of the q-quantile among n samples: the
// smallest r with r >= q·n.
func rank(q float64, n int) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quantile is the nearest-rank q-quantile of sorted (ascending) samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(q, len(sorted))-1]
}

// tailQuantile is quantile, refused when fewer than beyond samples lie
// above the percentile's rank.
func tailQuantile(sorted []float64, q float64, beyond int) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", q*100)
	}
	if above := n - rank(q, n); above < beyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, %d samples leave %d", q*100, beyond, n, above)
	}
	return quantile(sorted, q), nil
}

// samplesFor is the smallest sample count that leaves beyond samples above
// the q-quantile.
func samplesFor(q float64, beyond int) int {
	n := beyond + 1
	for n-rank(q, n) < beyond {
		n++
	}
	return n
}

// latencySummary is a timing reported as its median and one tail
// percentile, with the sample count both rest on.
type latencySummary struct {
	P50Ms, TailMs float64
	TailQ         float64
	N             int
}

func summarize(lats []time.Duration, q float64, beyond int) (latencySummary, error) {
	ms := make([]float64, len(lats))
	for i, d := range lats {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	tail, err := tailQuantile(ms, q, beyond)
	if err != nil {
		return latencySummary{}, err
	}
	return latencySummary{P50Ms: quantile(ms, 0.5), TailMs: tail, TailQ: q, N: len(ms)}, nil
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), which is how run-to-run spread is judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// regressed reports whether child is worse than parent by more than the
// relative bound plus the absolute floor, in the metric's direction.
func regressed(parent, child, bound, floor float64, higherBetter bool) bool {
	allowed := bound*math.Abs(parent) + floor
	if higherBetter {
		return parent-child > allowed
	}
	return child-parent > allowed
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
