package main

import (
	"math"
	"slices"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n          int
		want       float64
		wantBeyond int
		wantOK     bool
	}{
		{100, 90, 10, true}, // exactly ten above the nearest-rank p90
		{99, 90, 9, false},  // rank ceil(89.1) = 90: nine beyond
		{1000, 900, 100, true},
		{101, 91, 10, true}, // rank ceil(90.9) = 91
		{10, 9, 1, false},
	} {
		v, beyond, ok := percentile(seq(tc.n), 0.9)
		if v != tc.want || beyond != tc.wantBeyond || ok != tc.wantOK {
			t.Errorf("p90 of 1..%d = (%v, %d beyond, ok %v), want (%v, %d, %v)",
				tc.n, v, beyond, ok, tc.want, tc.wantBeyond, tc.wantOK)
		}
	}
	if v, _, _ := percentile([]float64{5, 1}, 0.5); v != 1 {
		t.Errorf("nearest-rank p50 of {1,5} = %v, want 1", v)
	}
	if _, _, ok := percentile(nil, 0.9); ok {
		t.Error("p90 of no samples reported ok")
	}
}

func TestSetupMedian(t *testing.T) {
	starts := []time.Duration{40 * time.Millisecond, 25 * time.Millisecond, 64 * time.Millisecond,
		31 * time.Millisecond, 38 * time.Millisecond}
	if got, want := setupMedian(starts), 0.038; math.Abs(got-want) > 1e-12 {
		t.Errorf("setupMedian = %v s, want %v s", got, want)
	}
}

func TestQuietSlices(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// Four 250 ms slices; 50 ticks of machine time each. The second and
	// fourth lose 10 and 20 ticks to the hypervisor.
	marks := []mark{
		{at(0), 0, 0, 0},
		{at(250), 100, 50, 0},
		{at(500), 160, 100, 10},
		{at(750), 260, 150, 10},
		{at(1000), 300, 200, 30},
	}
	// Shares 0, 0.2, 0, 0.4: the median is 0.1, so the first and third
	// slices are kept.
	keep, secs := quietSlices(marks)
	if want := [][2]int{{0, 100}, {160, 260}}; !slices.Equal(keep, want) || secs != 0.5 {
		t.Errorf("quietSlices = %v over %v s, want %v over 0.5 s", keep, secs, want)
	}

	// A quiet host keeps every slice.
	for i := range marks {
		marks[i].steal = 0
	}
	if keep, secs := quietSlices(marks); len(keep) != 4 || secs != 1 {
		t.Errorf("quiet host: kept %v over %v s, want all four slices over 1 s", keep, secs)
	}
	if keep, _ := quietSlices(marks[:1]); keep != nil {
		t.Errorf("one mark: kept %v, want none", keep)
	}

	xs := []float64{0, 1, 2, 3, 4, 5}
	if got := pick(xs, [][2]int{{0, 2}, {4, 5}}); !slices.Equal(got, []float64{0, 1, 4}) {
		t.Errorf("pick = %v, want [0 1 4]", got)
	}
}
