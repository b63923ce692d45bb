package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"runtime/metrics"
	"syscall"
	"time"

	"transn/internal/dataset"
	"transn/internal/eval"
	"transn/internal/graph"
	"transn/internal/obs"
	"transn/internal/ordered"
	"transn/internal/rngstream"
	"transn/internal/transn"
)

// trainSetupReps is how many set-up-only passes (dataset generation plus
// Train up to ModelReady) a train run makes besides its Train calls.
// One set-up takes milliseconds, so setup_s is a median over many.
const trainSetupReps = 29

// coverageTolerance bounds, as a share of the traced Train wall time,
// how far the program's own stage timings may fall short of it
// (trace.coverage), and how far any layer's callback intervals may
// differ from that layer's stage timings, before the trace counts as
// broken.
const coverageTolerance = 0.01

// Layers of Algorithm 1, as attributed from the Observer callbacks.
const (
	layerInit      = "init"
	layerWalk      = "walk"
	layerSkipGram  = "skipgram"
	layerCrossView = "crossview"
	layerFinalize  = "finalize"
)

// trainJob is what one Train call trains on: a graph generator, the
// configuration and the classification split seed.
type trainJob struct {
	graph func() *graph.Graph
	cfg   transn.Config
	split int64
}

// aminerJob is the train workload: AMiner quick with the default
// configuration and one worker (the only setting whose time is steady
// and whose result is exact on a small shared host), every seed derived
// from the workload seed.
func aminerJob(seed int64) trainJob {
	cfg := transn.DefaultConfig()
	cfg.Workers = 1
	cfg.Seed = rngstream.Derive(seed, streamTrain)
	return trainJob{
		graph: func() *graph.Graph { return dataset.AMiner(dataset.Quick, seed) },
		cfg:   cfg,
		split: rngstream.Derive(seed, streamSplit),
	}
}

// errSetupDone unwinds Train from its ModelReady callback once a
// set-up-only pass has its timestamp.
var errSetupDone = errors.New("set-up measured")

// setupOnce times dataset generation plus Train up to ModelReady, then
// abandons that Train by panicking out of the callback. With Workers=1
// nothing runs concurrently before ModelReady, so nothing is left
// behind.
func (j trainJob) setupOnce() (setup, init time.Duration, err error) {
	start := time.Now()
	g := j.graph()
	cfg := j.cfg
	var entry time.Time
	cfg.ModelReady = func(*transn.Model) {
		ready := time.Now()
		setup, init = ready.Sub(start), ready.Sub(entry)
		panic(errSetupDone)
	}
	defer func() {
		if p := recover(); p != nil && p != errSetupDone {
			panic(p)
		}
	}()
	entry = time.Now()
	if _, err := transn.Train(g, cfg); err != nil {
		return 0, 0, err
	}
	return 0, 0, fmt.Errorf("Train returned without calling ModelReady")
}

// rtStats is a runtime/metrics reading.
type rtStats struct {
	allocBytes, allocObjects uint64
	gcCPU                    float64
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readRuntime() rtStats {
	metrics.Read(rtSamples)
	return rtStats{
		allocBytes:   rtSamples[0].Value.Uint64(),
		allocObjects: rtSamples[1].Value.Uint64(),
		gcCPU:        rtSamples[2].Value.Float64(),
	}
}

// layerTrace attributes the time and allocation between consecutive
// callbacks to the layer whose completion the later callback reports.
// With Workers=1 the callbacks are sequential, so the intervals
// partition Train from entry to return.
//
// Beside those intervals it keeps, per layer, the stage durations the
// program itself reports in TrainEvent.DurationSeconds. They are
// measured inside Train, independently of the callback clock, so
// comparing the two checks the attribution.
type layerTrace struct {
	entry, last time.Time
	lastStats   rtStats
	dur         map[string]time.Duration // callback intervals
	stage       map[string]time.Duration // program-reported stage time
	allocBytes  map[string]uint64
	allocs      map[string]uint64
	examples    map[string]int64
}

func newLayerTrace(entry time.Time, st rtStats) *layerTrace {
	return &layerTrace{
		entry: entry, last: entry, lastStats: st,
		dur: map[string]time.Duration{}, stage: map[string]time.Duration{},
		allocBytes: map[string]uint64{}, allocs: map[string]uint64{}, examples: map[string]int64{},
	}
}

// mark closes the interval since the previous mark as layer's. stage is
// the program's own duration for the event, 0 where it reports none.
func (t *layerTrace) mark(layer string, now time.Time, st rtStats, examples int, stage time.Duration) {
	t.dur[layer] += now.Sub(t.last)
	t.stage[layer] += stage
	t.allocBytes[layer] += st.allocBytes - t.lastStats.allocBytes
	t.allocs[layer] += st.allocObjects - t.lastStats.allocObjects
	t.examples[layer] += int64(examples)
	t.last, t.lastStats = now, st
}

// stageLayers are the layers whose events carry a program-side duration.
var stageLayers = []string{layerWalk, layerSkipGram, layerCrossView}

func (t *layerTrace) wall() time.Duration { return t.last.Sub(t.entry) }

// coverage is the share of the traced Train wall time that init (entry
// to ModelReady) plus the program-reported walk, skip-gram and
// cross-view stage times account for. Work that Train does outside
// every reported stage lowers it.
func (t *layerTrace) coverage() float64 {
	sum := t.dur[layerInit]
	for _, l := range stageLayers {
		sum += t.stage[l]
	}
	return ratio(sum.Seconds(), t.wall().Seconds())
}

// check returns an error when coverage is off 1 by more than tol, or
// when a layer's callback intervals differ from its stage time by more
// than tol of the wall time.
func (t *layerTrace) check(tol float64) error {
	if cov := t.coverage(); math.Abs(cov-1) > tol {
		return fmt.Errorf("reported stages cover %.4f of traced Train wall time, want 1±%.2f", cov, tol)
	}
	wall := t.wall().Seconds()
	for _, l := range stageLayers {
		if d := t.dur[l] - t.stage[l]; math.Abs(d.Seconds()) > tol*wall {
			return fmt.Errorf("layer %s: callback intervals %v, reported stage time %v", l, t.dur[l], t.stage[l])
		}
	}
	return nil
}

// layerOf maps an Observer event to the layer that just finished. The
// iteration event closes the per-iteration merge of losses; it and any
// diagnostic count as finalize work, like the tail after the last event.
func layerOf(stage obs.Stage) string {
	switch stage {
	case obs.StageWalk:
		return layerWalk
	case obs.StageSkipGram:
		return layerSkipGram
	case obs.StageCrossPair:
		return layerCrossView
	}
	return layerFinalize
}

// trainCall is one measured Train call.
type trainCall struct {
	setup, init time.Duration
	wall        time.Duration // ModelReady to return
	cpu         time.Duration // process CPU over the same interval
	start, end  rtStats       // runtime readings at ModelReady and return
	macro       float64
	micro       float64
	digest      uint64 // FNV-1a of the final embedding bits
	layers      *layerTrace
	iterPeaks   []float64 // peak RSS of each iteration, bytes
	rssErr      error     // reading or resetting the peak RSS failed
	// refs are the computeRef passes made at ModelReady and at every
	// callback; wall and cpu exclude their time.
	refs            []time.Duration
	refWall, refCPU time.Duration
}

// run generates the dataset, trains, and checks and scores the
// result. With ref set, a reference pass runs at ModelReady and after
// every Observer callback, on the goroutine that trains, so the passes
// sample the speed of the vCPU doing the work while it works. A failed
// check is recorded in o; the call is still returned with what could
// be measured.
func (j trainJob) run(traced bool, ref *computeRef, o *outcome) *trainCall {
	o.attempted++
	c := &trainCall{}
	start := time.Now()
	g := j.graph()
	cfg := j.cfg
	var ready time.Time
	var cpuReady time.Duration
	// The kernel's peak-RSS counter is reset at ModelReady and read and
	// reset again at the end of every iteration, so each reading is one
	// iteration's peak resident set.
	resetPeak := func() {
		if err := resetPeakRSS(); err != nil && c.rssErr == nil {
			c.rssErr = fmt.Errorf("resetting peak RSS: %w", err)
		}
	}
	refPass := func() {
		if ref == nil {
			return
		}
		wall, cpu := ref.pass()
		c.refs, c.refWall, c.refCPU = append(c.refs, wall), c.refWall+wall, c.refCPU+cpu
	}
	cfg.ModelReady = func(*transn.Model) {
		ready = time.Now()
		cpuReady = processCPU()
		c.start = readRuntime()
		if c.layers != nil {
			c.layers.mark(layerInit, ready, c.start, 0, 0)
		}
		resetPeak()
		refPass()
	}
	if traced {
		// Telemetry makes Train time its stages into the events'
		// DurationSeconds; without it they read 0.
		cfg.Telemetry = obs.NewRun()
	}
	cfg.Observer = func(ev obs.TrainEvent) {
		if c.layers != nil {
			layer, stage := layerOf(ev.Stage), time.Duration(0)
			if layer != layerFinalize {
				// The iteration event's duration spans the whole
				// iteration, every other stage included.
				stage = time.Duration(ev.DurationSeconds * float64(time.Second))
			}
			c.layers.mark(layer, time.Now(), readRuntime(), ev.Examples, stage)
		}
		if ev.Stage == obs.StageIteration {
			peak, err := peakRSS("self")
			if err != nil && c.rssErr == nil {
				c.rssErr = err
			}
			c.iterPeaks = append(c.iterPeaks, float64(peak))
			resetPeak()
		}
		refPass()
	}
	entry := time.Now()
	if traced {
		c.layers = newLayerTrace(entry, readRuntime())
	}
	m, err := transn.Train(g, cfg)
	end := time.Now()
	c.cpu = processCPU() - cpuReady - c.refCPU
	c.end = readRuntime()
	if c.layers != nil {
		c.layers.mark(layerFinalize, end, c.end, 0, 0)
	}
	c.setup, c.init, c.wall = ready.Sub(start), ready.Sub(entry), end.Sub(ready)-c.refWall
	if err != nil {
		o.fail("Train: %v", err)
		return c
	}
	if err := m.CheckFinite(); err != nil {
		o.fail("trained model: %v", err)
		return c
	}
	emb := m.Embeddings()
	if emb.R != g.NumNodes() || emb.C != cfg.Dim {
		o.fail("embeddings are %dx%d, want %dx%d", emb.R, emb.C, g.NumNodes(), cfg.Dim)
		return c
	}
	h := fnv.New64a()
	var b [8]byte
	for _, v := range emb.Data {
		bits := math.Float64bits(v)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	c.digest = h.Sum64()
	c.macro, c.micro, err = eval.NodeClassification(emb, g, 0.9, 10, rand.New(rand.NewSource(j.split)))
	if err != nil {
		o.fail("node classification: %v", err)
	}
	return c
}

// runTrain measures the train workload. Untraced, it repeats Train
// calls while the next one is expected to end within the run's time
// (at least one), with computeRef passes inside each, and scales its
// times by their slowdown. Traced, it makes an untraced, a traced and
// another untraced call, without reference passes, and reports the
// layer split plus the tracing overhead against the mean of the two
// untraced calls, which brackets a steady drift of the host's speed.
func runTrain(seed int64, secs float64, traced bool) (*outcome, error) {
	o := newOutcome()
	job := aminerJob(seed)
	var setups, inits []time.Duration
	var err error
	for i := 0; i < trainSetupReps; i++ {
		s, in, err := job.setupOnce()
		if err != nil {
			return nil, fmt.Errorf("set-up pass: %w", err)
		}
		setups, inits = append(setups, s), append(inits, in)
	}
	var ref *computeRef
	if !traced {
		if ref, err = newComputeRef(); err != nil {
			return nil, err
		}
		defer ref.close()
	}
	var calls []*trainCall
	var walls, peaks []float64
	var cpu time.Duration
	var refs []time.Duration
	steal, err := startSteal()
	if err != nil {
		return nil, err
	}
	began := time.Now()
	for {
		c := job.run(traced && len(calls) == 1, ref, o)
		if c.rssErr != nil {
			return nil, c.rssErr
		}
		calls, walls, cpu = append(calls, c), append(walls, c.wall.Seconds()), cpu+c.cpu
		peaks, refs = append(peaks, c.iterPeaks...), append(refs, c.refs...)
		setups, inits = append(setups, c.setup), append(inits, c.init)
		if c.digest != calls[0].digest || c.macro != calls[0].macro || c.micro != calls[0].micro {
			o.fail("Train call %d differs from call 1 at the same seed", len(calls))
		}
		if traced {
			if len(calls) == 3 {
				break
			}
		} else if time.Since(began).Seconds()+median(walls) > secs {
			break
		}
	}
	stolen, err := steal.share()
	if err != nil {
		return nil, err
	}
	if ref != nil {
		for i := range peaks {
			// The reference table is resident throughout and is not
			// the program's.
			peaks[i] -= refBytes
		}
	}
	first, sd := calls[0], slowdown(refs, nominalCompute)
	fmt.Fprintf(os.Stderr, "perfbench: train seed %d: %d call(s), first %.3fs as measured, macro-F1 %.4f, micro-F1 %.4f, iteration peak RSS %.1f MiB (%.1f–%.1f), reference slowdown %.3f over %d passes, host steal %.1f%%\n",
		seed, len(calls), first.wall.Seconds(), first.macro, first.micro,
		median(peaks)/(1<<20), quantile(sortedCopy(peaks), 0)/(1<<20), quantile(sortedCopy(peaks), 1)/(1<<20), sd, len(refs), 100*stolen)
	if traced {
		fmt.Fprintf(os.Stderr, "perfbench: untraced, traced, untraced Train: %.3fs, %.3fs, %.3fs\n",
			calls[0].wall.Seconds(), calls[1].wall.Seconds(), calls[2].wall.Seconds())
		traceMetrics(o, calls[1], (calls[0].wall+calls[2].wall)/2, inits)
		return o, nil
	}
	sorted := sortedCopy(walls)
	o.metrics["setup_s"] = median(seconds(setups)) / sd
	o.metrics["latency_p50_s"] = quantile(sorted, 0.5) / sd
	o.metrics["latency_p99_s"] = quantile(sorted, 0.99) / sd
	o.metrics["throughput_ops_per_s"] = sd / mean(walls)
	o.metrics["cpu_per_op_s"] = cpu.Seconds() / float64(len(calls)) / sd
	// The median iteration, not the process maximum: a short burst of
	// resident memory can raise one iteration's peak by up to about
	// double, in iterations that differ from run to run, and the
	// median ignores it.
	o.metrics["peak_rss_bytes"] = median(peaks)
	o.metrics["quality"] = first.macro
	return o, nil
}

// traceMetrics fills the per-layer metrics from the traced call t,
// comparing its wall time with the untraced wall time.
func traceMetrics(o *outcome, t *trainCall, untraced time.Duration, inits []time.Duration) {
	lt := t.layers
	fmt.Fprintf(os.Stderr, "perfbench: traced Train: %s\n", layerSummary(lt))
	if err := lt.check(coverageTolerance); err != nil {
		o.fail("%v", err)
	}
	sec := func(layer string) float64 { return lt.dur[layer].Seconds() }
	per := func(layer string, total uint64) float64 { return ratio(float64(total), float64(lt.examples[layer])) }
	o.metrics["transn.init_s"] = median(seconds(inits))
	o.metrics["walk.s"] = sec(layerWalk)
	o.metrics["walk.paths"] = float64(lt.examples[layerWalk])
	o.metrics["walk.paths_per_s"] = ratio(float64(lt.examples[layerWalk]), sec(layerWalk))
	o.metrics["skipgram.s"] = sec(layerSkipGram)
	o.metrics["skipgram.pairs"] = float64(lt.examples[layerSkipGram])
	o.metrics["skipgram.pairs_per_s"] = ratio(float64(lt.examples[layerSkipGram]), sec(layerSkipGram))
	o.metrics["skipgram.alloc_bytes_per_pair"] = per(layerSkipGram, lt.allocBytes[layerSkipGram])
	o.metrics["skipgram.allocs_per_pair"] = per(layerSkipGram, lt.allocs[layerSkipGram])
	o.metrics["transn.crossview_s"] = sec(layerCrossView)
	o.metrics["transn.crossview_segments"] = float64(lt.examples[layerCrossView])
	o.metrics["transn.crossview_segments_per_s"] = ratio(float64(lt.examples[layerCrossView]), sec(layerCrossView))
	o.metrics["transn.crossview_alloc_bytes_per_segment"] = per(layerCrossView, lt.allocBytes[layerCrossView])
	o.metrics["transn.crossview_allocs_per_segment"] = per(layerCrossView, lt.allocs[layerCrossView])
	o.metrics["finalize.s"] = sec(layerFinalize)
	o.metrics["runtime.gc_cpu_s"] = t.end.gcCPU - t.start.gcCPU
	o.metrics["runtime.alloc_bytes"] = float64(t.end.allocBytes - t.start.allocBytes)
	o.metrics["trace.coverage"] = lt.coverage()
	o.metrics["trace.overhead"] = t.wall.Seconds()/untraced.Seconds() - 1
	o.metrics["eval.macro_f1"] = t.macro
	o.metrics["eval.micro_f1"] = t.micro
}

// layerSummary renders each layer's share of the traced wall time.
func layerSummary(lt *layerTrace) string {
	wall := lt.wall().Seconds()
	s := fmt.Sprintf("wall %.3fs, coverage %.5f", wall, lt.coverage())
	for _, l := range ordered.Keys(lt.dur) {
		s += fmt.Sprintf(", %s %.3fs (%.1f%%)", l, lt.dur[l].Seconds(), 100*ratio(lt.dur[l].Seconds(), wall))
	}
	return s
}

// processCPU returns this process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF with a valid pointer cannot fail.
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
