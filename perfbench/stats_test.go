package main

import (
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n     int
		q     float64
		found bool
	}{
		{19, 0, false},
		{20, 0.5, true},
		{99, 0.5, true},
		{100, 0.9, true},
		{999, 0.9, true},
		{1000, 0.99, true},
		{9999, 0.99, true},
		{10000, 0.999, true},
		{200000, 0.9999, true},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		q, v, ok := tailPercentile(xs)
		if ok != tc.found || q != tc.q {
			t.Errorf("n=%d: got p%v (ok %v), want p%v (ok %v)", tc.n, q, ok, tc.q, tc.found)
			continue
		}
		if ok && tc.n-int(v) < minBeyond {
			t.Errorf("n=%d: p%v = %v has %d samples beyond it", tc.n, q, v, tc.n-int(v))
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{0.1: 1, 0.5: 5, 0.55: 6, 0.99: 10, 1: 10} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestSliceStats(t *testing.T) {
	// Two one-second slices with a reference pass between them: three
	// requests then one, the server spending 30ms then 40ms of CPU.
	base := time0()
	tick := func(atMs, cpuMs int) cpuTick { return cpuTick{at: base.Add(ms(atMs)), cpu: ms(cpuMs)} }
	spans := []span{{tick(1500, 30), tick(2500, 70)}, {tick(0, 0), tick(1000, 30)}}
	var measured []sample
	for _, s := range []struct{ doneMs, latMs int }{{100, 1}, {200, 2}, {900, 3}, {1200, 9}, {2000, 8}} {
		measured = append(measured, sample{ep: "knn", latency: ms(s.latMs), done: base.Add(ms(s.doneMs))})
	}
	measured = append(measured, sample{ep: endpointReload, latency: ms(200), done: base.Add(ms(2100))})
	w, reloads, err := sliceStats(measured, spans)
	if err != nil {
		t.Fatal(err)
	}
	// The request done at 1200ms fell between the slices.
	if len(reloads) != 1 || w.requests != 5 {
		t.Fatalf("%d reloads, %d requests; want 1 and 5", len(reloads), w.requests)
	}
	want := [][]float64{w.throughput, {3, 1}, w.p50, {0.002, 0.008}, w.cpuPerOp, {0.01, 0.04}}
	for i := 0; i < len(want); i += 2 {
		got, exp := want[i], want[i+1]
		for k := range exp {
			if d := got[k] - exp[k]; d > 1e-9 || d < -1e-9 {
				t.Errorf("series %d window %d: %v, want %v", i/2, k, got[k], exp[k])
			}
		}
	}
}

func time0() time.Time       { return time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC) }
func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }
