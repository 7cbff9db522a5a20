package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartiles of xs by the
// exclusive method of Python's statistics.quantiles(xs, n=4), the rule
// the benchmark's run-to-run spread is judged by. It needs two values.
func quartiles(xs []float64) (q1, q3 float64, err error) {
	ld := len(xs)
	if ld < 2 {
		return 0, 0, fmt.Errorf("quartiles need at least 2 values, got %d", ld)
	}
	s := sorted(xs)
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3), nil
}

// tailPercentiles is the ladder trial_tail_s climbs down. p50 is
// deliberately absent: a "tail" that reads the median says nothing
// about the tail, so too few trials omit the metric instead.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// minBeyondTail is how many samples must lie beyond a reported tail
// percentile.
const minBeyondTail = 10

// tail returns the highest percentile of the ladder that has at least
// minBeyondTail samples strictly beyond its nearest-rank position, with
// its value. ok is false when no percentile qualifies (fewer than 40
// samples).
func tail(xs []float64) (pct, value float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	for _, p := range tailPercentiles {
		k := int(math.Ceil(p*float64(n)/100 - 1e-9)) // 1-based nearest rank
		if k < 1 || n-k < minBeyondTail {
			continue
		}
		return p, s[k-1], true
	}
	return 0, 0, false
}

// nameRE is the metric and workload name charset of BENCHMARK.json.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// unitRE is the unit charset of BENCHMARK.json.
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
