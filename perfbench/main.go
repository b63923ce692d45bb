// Command perfbench is the repository benchmark. It measures the two
// TransN pipelines end to end and, in a separate traced run, layer by
// layer:
//
//	train      transn.Train (Algorithm 1) on AMiner quick, Workers=1,
//	           then node classification
//	serve-mix  transnserve over a 20k-node .snap with an HNSW section,
//	           under load.DefaultMix with Zipf-skewed nodes and one
//	           mid-run POST /admin/reload
//
// Every input is generated from -seed. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With -trace 0 the metrics are the end-to-end set, with -trace 1 the
// per-layer set; every workload reports every metric of its set, and a
// per-layer metric of a layer the workload does not run is 0.
//
// Run it through run.sh from the repository root, which builds this
// package and cmd/transnserve first:
//
//	bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"syscall"
)

// metricDef names one reported metric. layer marks the per-layer set.
type metricDef struct {
	name, unit string
	layer      bool
}

// metricDefs lists every metric in BENCHMARK.json order (a test keeps
// the two in sync). The end-to-end set is shared by all workloads, so
// each is defined for training and for serving:
//
//	latency_p50_s / latency_p99_s  one Train call (ModelReady to
//	                               return), or one HTTP request
//	throughput_ops_per_s           Train calls, or requests, per second
//	cpu_per_op_s                   CPU of the process doing the work
//	                               (trainer or server) per operation
//	quality                        macro-F1 for train, k-NN recall@10
//	                               for serve-mix
var metricDefs = []metricDef{
	{"setup_s", "s", false},
	{"latency_p50_s", "s", false},
	{"latency_p99_s", "s", false},
	{"throughput_ops_per_s", "1/s", false},
	{"cpu_per_op_s", "s", false},
	{"peak_rss_bytes", "bytes", false},
	{"quality", "ratio", false},

	{"transn.init_s", "s", true},
	{"walk.s", "s", true},
	{"walk.paths", "count", true},
	{"walk.paths_per_s", "1/s", true},
	{"skipgram.s", "s", true},
	{"skipgram.pairs", "count", true},
	{"skipgram.pairs_per_s", "1/s", true},
	{"skipgram.alloc_bytes_per_pair", "bytes", true},
	{"skipgram.allocs_per_pair", "count", true},
	{"transn.crossview_s", "s", true},
	{"transn.crossview_segments", "count", true},
	{"transn.crossview_segments_per_s", "1/s", true},
	{"transn.crossview_alloc_bytes_per_segment", "bytes", true},
	{"transn.crossview_allocs_per_segment", "count", true},
	{"finalize.s", "s", true},
	{"runtime.gc_cpu_s", "s", true},
	{"runtime.alloc_bytes", "bytes", true},
	{"trace.coverage", "ratio", true},
	{"trace.overhead", "ratio", true},
	{"eval.macro_f1", "ratio", true},
	{"eval.micro_f1", "ratio", true},
	{"transport.conn_wait_s", "s", true},
	{"transport.ttfb_s", "s", true},
	{"transport.read_s", "s", true},
	{"serve.handler_s", "s", true},
	{"serve.unattributed_s", "s", true},
	{"serve.cache_hit_ratio", "ratio", true},
	{"serve.coalesced", "count", true},
	{"serve.reload_s", "s", true},
	{"serve.reload_overlap_share", "ratio", true},
	{"ann.search_s", "s", true},
	{"ann.dist_evals_per_query", "count", true},
	{"ann.build_s", "s", true},
	{"snapfmt.pack_s", "s", true},
	{"snapfmt.open_s", "s", true},
	{"transn.translate_s", "s", true},
	{"transn.infer_s", "s", true},
}

// outcome is what a workload measured: operation counts, end-to-end
// values (untraced runs) and per-layer values (traced runs).
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

// fail records one failed operation and says why on stderr.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if o.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: failed: "+format+"\n", args...)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultFor builds the printed result: every metric of the requested
// set. A missing end-to-end metric is a benchmark bug; a missing
// per-layer metric is a layer this workload does not run, reported 0.
func resultFor(o *outcome, traced bool) (*result, error) {
	r := &result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range metricDefs {
		if d.layer != traced {
			continue
		}
		v, ok := o.metrics[d.name]
		if !ok && !traced {
			return nil, fmt.Errorf("workload did not measure %s", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", d.name, v)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return r, nil
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "train or serve-mix")
	seed := fs.Int64("seed", 1, "workload seed: drives every generated input")
	secs := fs.Float64("seconds", 10, "measurement time of one run")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	server := fs.String("server", "", "transnserve binary (serve-mix)")
	workDir := fs.String("workdir", "", "directory for generated inputs, removed on exit (required)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workDir == "" || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -workdir is required, -seconds must be positive and -trace 0 or 1")
		return 2
	}
	traced := *trace == 1
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(*workDir)

	var o *outcome
	var err error
	switch *workload {
	case "train":
		o, err = runTrain(*seed, *secs, traced)
	case "serve-mix":
		// SIGINT and SIGTERM end the closed loop early, so the server is
		// stopped and waited for before the benchmark exits.
		stop := make(chan struct{})
		sigs := make(chan os.Signal, 1)
		signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
		go func() {
			if _, ok := <-sigs; ok {
				close(stop)
			}
		}()
		o, err = runServe(serveParams{
			seed: *seed, seconds: *secs, traced: traced,
			server: *server, dir: *workDir, stop: stop,
		})
		signal.Stop(sigs)
		close(sigs)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want train or serve-mix)\n", *workload)
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res, err := resultFor(o, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
