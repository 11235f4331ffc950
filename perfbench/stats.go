package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a p90 over fewer than 100 samples rests on a handful of
// outliers and does not repeat from run to run.
const minBeyond = 10

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs (0 < q ≤ 1): the
// smallest sample with at least q·n samples at or below it. beyond is
// the number of samples strictly after that rank, and ok reports whether
// beyond reaches minBeyond — the rule every reported tail obeys. xs is
// not modified.
func percentile(xs []float64, q float64) (v float64, beyond int, ok bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(q * float64(n)))
	rank = min(max(rank, 1), n)
	beyond = n - rank
	return s[rank-1], beyond, beyond >= minBeyond
}

// tail returns the p90 of latencies with a note giving the sample count
// and how many samples lie beyond it.
func tail(latencies []float64) (float64, string) {
	p90, beyond, ok := percentile(latencies, 0.9)
	note := fmt.Sprintf("p90 of n=%d, %d beyond", len(latencies), beyond)
	if !ok {
		note += fmt.Sprintf(" (fewer than %d: not repeatable)", minBeyond)
	}
	return p90, note
}

// setupMedian is the reported set-up time: the median of several cold
// starts, in seconds. A single cold start swings by a factor of two on
// a shared host, so one sample is never reported.
func setupMedian(starts []time.Duration) float64 {
	xs := make([]float64, len(starts))
	for i, d := range starts {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mark is a reading taken between two requests of a timed window.
type mark struct {
	at           time.Time
	verified     int    // verified requests completed so far in the window
	total, steal uint64 // the machine's CPU time and its stolen part so far, in ticks
}

// quietSlices cuts a window at its marks and keeps the slices in which
// the hypervisor stole no larger a share of the machine's CPU time than
// in the median slice. It returns the verified-request ranges [from, to)
// of the kept slices and the seconds they span. Stolen time is a
// neighbour's work, not the program's; on a quiet host every slice reads
// the same zero share and all of them are kept.
func quietSlices(marks []mark) (keep [][2]int, seconds float64) {
	if len(marks) < 2 {
		return nil, 0
	}
	shares := make([]float64, len(marks)-1)
	for i := range shares {
		a, b := marks[i], marks[i+1]
		if b.total > a.total {
			shares[i] = float64(b.steal-a.steal) / float64(b.total-a.total)
		}
	}
	limit := median(shares)
	for i, s := range shares {
		if s <= limit {
			a, b := marks[i], marks[i+1]
			keep = append(keep, [2]int{a.verified, b.verified})
			seconds += b.at.Sub(a.at).Seconds()
		}
	}
	return keep, seconds
}

// pick returns the samples of xs inside the ranges.
func pick(xs []float64, ranges [][2]int) []float64 {
	var out []float64
	for _, r := range ranges {
		out = append(out, xs[r[0]:r[1]]...)
	}
	return out
}
