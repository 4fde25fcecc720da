package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before the
// benchmark reports it: a p99 read off 200 samples is two samples, not
// a tail.
const minTail = 10

// candidatePercentiles are the percentiles the tail rule chooses from.
var candidatePercentiles = []float64{50, 90, 99, 99.9}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
// The tolerance keeps 99.9% of 10000 at 9990 despite binary rounding.
func rank(n int, p float64) int {
	return min(max(int(math.Ceil(p/100*float64(n)-1e-9)), 1), n)
}

// beyond returns how many of n samples lie above the nearest-rank p-th
// percentile.
func beyond(n int, p float64) int {
	return n - rank(n, p)
}

// supportedTail returns the highest candidate percentile with at least
// minTail samples beyond it, or 0 when even the median lacks them.
func supportedTail(n int) float64 {
	best := 0.0
	for _, p := range candidatePercentiles {
		if beyond(n, p) >= minTail {
			best = p
		}
	}
	return best
}

// dist is a latency sample summarized by the tail rule.
type dist struct {
	n    int
	p50  float64
	p99  float64
	tail float64 // highest supported percentile (supportedTail)
	at   float64 // its value
}

func summarize(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := dist{n: len(s), p50: percentile(s, 50), p99: percentile(s, 99), tail: supportedTail(len(s))}
	if d.tail > 0 {
		d.at = percentile(s, d.tail)
	}
	return d
}

// p99Note states whether a p99 is backed by the tail rule, and if not,
// which percentile is.
func (d dist) p99Note() string {
	if d.tail >= 99 {
		return fmt.Sprintf("n=%d", d.n)
	}
	if d.tail == 0 {
		return fmt.Sprintf("n=%d; too few samples for any percentile", d.n)
	}
	return fmt.Sprintf("n=%d; p99 has %d samples beyond it, highest supported p%g = %.4g",
		d.n, beyond(d.n, 99), d.tail, d.at)
}

// selfTimes pairs parent and child spans by batch id and returns, per
// matched id in parent order, the parent's duration minus the child's:
// the time a layer spends on a batch beyond what the layer below it
// spends on the same batch.
func selfTimes(parent, child []span) []float64 {
	byID := make(map[int64]span, len(child))
	for _, c := range child {
		byID[c.ID] = c
	}
	var out []float64
	for _, p := range parent {
		if c, ok := byID[p.ID]; ok {
			out = append(out, p.ms()-c.ms())
		}
	}
	return out
}

// durations returns the spans' durations in milliseconds.
func durations(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.ms()
	}
	return out
}

// busy returns the spans' summed duration in seconds.
func busy(spans []span) float64 {
	var ns int64
	for _, s := range spans {
		ns += s.End - s.Start
	}
	return float64(ns) / 1e9
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
