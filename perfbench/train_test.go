package main

import (
	"math"
	"testing"
	"time"

	"transn/internal/dataset"
	"transn/internal/graph"
	"transn/internal/transn"
)

// tinyJob trains AMiner quick with a configuration small enough for a
// unit test, keeping every layer of Algorithm 1.
func tinyJob() trainJob {
	cfg := transn.DefaultConfig()
	cfg.Workers = 1
	cfg.Dim = 16
	cfg.WalkLength = 10
	cfg.MinWalksPerNode = 1
	cfg.MaxWalksPerNode = 2
	cfg.Iterations = 2
	cfg.Encoders = 1
	cfg.CrossPathLen = 4
	cfg.CrossPathsPerPair = 4
	return trainJob{
		graph: func() *graph.Graph { return dataset.AMiner(dataset.Quick, 3) },
		cfg:   cfg,
		split: 5,
	}
}

func TestLayerIntervalsCoverTrain(t *testing.T) {
	o := newOutcome()
	c := tinyJob().run(true, nil, o)
	if o.failed != 0 {
		t.Fatalf("%d failed checks", o.failed)
	}
	lt := c.layers
	t.Logf("coverage %.5f", lt.coverage())
	if err := lt.check(coverageTolerance); err != nil {
		t.Error(err)
	}
	if wall := (c.init + c.wall).Seconds(); math.Abs(lt.wall().Seconds()-wall) > 1e-9 {
		t.Errorf("trace wall %v, Train took %vs", lt.wall(), wall)
	}
	for _, l := range stageLayers {
		if lt.dur[l] <= 0 || lt.stage[l] <= 0 || lt.examples[l] <= 0 {
			t.Errorf("layer %s: %v (stage %v) over %d examples, want all positive", l, lt.dur[l], lt.stage[l], lt.examples[l])
		}
	}
}

// TestLayerCheckCatchesGaps feeds the trace intervals the program's
// stage timings do not account for, and intervals attributed to the
// wrong layer, and expects the check to reject both.
func TestLayerCheckCatchesGaps(t *testing.T) {
	ms := time.Millisecond
	trace := func(marks ...func(*layerTrace, time.Time) time.Time) *layerTrace {
		t0 := time.Unix(0, 0)
		lt := newLayerTrace(t0, rtStats{})
		at := t0
		for _, m := range marks {
			at = m(lt, at)
		}
		return lt
	}
	mark := func(layer string, interval, stage time.Duration) func(*layerTrace, time.Time) time.Time {
		return func(lt *layerTrace, at time.Time) time.Time {
			at = at.Add(interval)
			lt.mark(layer, at, rtStats{}, 1, stage)
			return at
		}
	}
	cases := []struct {
		name string
		lt   *layerTrace
		ok   bool
	}{
		{"covered", trace(mark(layerInit, ms, 0), mark(layerWalk, 10*ms, 10*ms),
			mark(layerSkipGram, 80*ms, 80*ms), mark(layerCrossView, 9*ms, 9*ms), mark(layerFinalize, 0, 0)), true},
		{"work outside every stage", trace(mark(layerInit, ms, 0), mark(layerWalk, 10*ms, 10*ms),
			mark(layerSkipGram, 80*ms, 70*ms), mark(layerCrossView, 9*ms, 9*ms)), false},
		{"untimed tail", trace(mark(layerInit, ms, 0), mark(layerSkipGram, 80*ms, 80*ms),
			mark(layerFinalize, 20*ms, 0)), false},
		{"intervals under the wrong layer", trace(mark(layerInit, ms, 0), mark(layerWalk, 0, 10*ms),
			mark(layerSkipGram, 90*ms, 80*ms), mark(layerCrossView, 9*ms, 9*ms)), false},
	}
	for _, tc := range cases {
		if err := tc.lt.check(coverageTolerance); (err == nil) != tc.ok {
			t.Errorf("%s: check returned %v (coverage %.3f), want ok=%v", tc.name, err, tc.lt.coverage(), tc.ok)
		}
	}
}

func TestTrainRepeatsAtSameSeed(t *testing.T) {
	o := newOutcome()
	a, b := tinyJob().run(true, nil, o), tinyJob().run(true, nil, o)
	if o.failed != 0 {
		t.Fatalf("%d failed checks", o.failed)
	}
	if a.macro != b.macro || a.micro != b.micro || a.digest != b.digest {
		t.Errorf("same seed: macro %v/%v, micro %v/%v, digest %x/%x", a.macro, b.macro, a.micro, b.micro, a.digest, b.digest)
	}
	if len(a.iterPeaks) != tinyJob().cfg.Iterations {
		t.Errorf("%d iteration peaks, want one per iteration", len(a.iterPeaks))
	}
	for _, p := range a.iterPeaks {
		if p <= 0 {
			t.Errorf("iteration peak RSS %v", p)
		}
	}
	for _, l := range []string{layerSkipGram, layerCrossView} {
		if a.layers.examples[l] != b.layers.examples[l] {
			t.Errorf("%s examples %d then %d", l, a.layers.examples[l], b.layers.examples[l])
		}
	}
}

func TestSetupOnceStopsAtModelReady(t *testing.T) {
	setup, init, err := tinyJob().setupOnce()
	if err != nil {
		t.Fatal(err)
	}
	if setup <= 0 || init <= 0 || init > setup {
		t.Errorf("setup %v, init %v: want 0 < init <= setup", setup, init)
	}
}
