package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"transn/internal/graph"
	"transn/internal/load"
	"transn/internal/rngstream"
)

const (
	// serveSetupReps is how many launches besides the measured one a
	// serve run times; setup_s is the median of all.
	serveSetupReps = 9
	// slices is how many equal slices the measured time is cut into.
	// An httpRef pass runs before each slice and after the last, so the
	// passes sample the host all through the run. The end-to-end serve
	// metrics are medians over slices, scaled by the median pass.
	slices = 10
	// streamLen is the length of the generated request stream; the
	// closed loop cycles through it.
	streamLen = 1 << 16
	// A run sends one POST /admin/reload, halfway through the measured
	// time, at the start of slice slices/2. It follows the repository's
	// own load profiles: CI's gated profiles send one per run, and
	// transnload spaces its -reloads evenly over the run.
	// recallSample is how many nodes the recall probe asks for.
	recallSample = 100
	// warmup is the closed-loop time before measuring starts, so
	// connections are open and the server's caches are populated.
	warmup = time.Second
	// inProcessCalls bounds the in-process timing pass per call kind.
	inProcessCalls = 2000
	// clockTicks is the unit of utime and stime in /proc/<pid>/stat.
	clockTicks = 100
)

type serveParams struct {
	seed        int64
	seconds     float64
	traced      bool
	server, dir string
	stop        <-chan struct{}
}

// sample is one completed request as the client saw it.
type sample struct {
	ep      load.Endpoint
	latency time.Duration // done minus the time the request was sent
	// Client-side phases, traced runs only: start to connection
	// acquired, request written to first response byte, first byte to
	// body fully read.
	connWait, ttfb, read time.Duration
	// done is when the response body was fully read.
	done time.Time
}

// runServe measures the serve-mix workload against a transnserve process.
func runServe(p serveParams) (*outcome, error) {
	if p.server == "" {
		return nil, fmt.Errorf("-server is required for serve-mix")
	}
	ps, err := prepareSnapshot(p.dir, p.seed)
	if err != nil {
		return nil, err
	}
	ref, err := openReference(ps)
	if err != nil {
		return nil, err
	}
	defer ref.close()
	stream, err := buildStream(ref, p.seed, streamLen)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	if p.traced {
		inProcessMetrics(o, ref, stream, ps)
	}

	var setups []time.Duration
	for i := 0; i < serveSetupReps; i++ {
		srv, d, err := launch(p.server, ps)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
		// transnserve prints its address before it installs its signal
		// handler, so a SIGTERM right after start-up may find the
		// default action still in place. That is an early stop, not a
		// failure.
		if err := srv.stop(); err != nil && !srv.killedBy(syscall.SIGTERM) {
			return nil, err
		}
	}
	srv, d, err := launch(p.server, ps)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	setups = append(setups, d)

	conns := runtime.NumCPU()
	transport := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 30 * time.Second}
	lp := &loop{client: client, base: srv.base, stream: stream,
		names: ref.names, traced: p.traced, stop: p.stop, out: o}

	href, err := newHTTPRef(conns)
	if err != nil {
		return nil, err
	}
	defer href.close()

	lp.phase(conns, warmup)
	// The /metrics scrapes bracket the measured slices only, so their
	// deltas cover the same requests as the client-side phases; the
	// server is idle during the reference passes between slices.
	var before, after serverMetrics
	if p.traced {
		if before, err = scrape(client, srv.base); err != nil {
			return nil, err
		}
	}
	steal, err := startSteal()
	if err != nil {
		return nil, err
	}
	per := time.Duration(p.seconds * float64(time.Second) / slices)
	var measured []sample
	var spans []span
	var passes []time.Duration
	for k := 0; k <= slices; k++ {
		pass, err := href.pass()
		if err != nil {
			return nil, err
		}
		if passes = append(passes, pass); k == slices {
			break
		}
		from, err := serverCPU(srv.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		if k == slices/2 {
			lp.reloadAt = []time.Time{from.at}
		}
		measured = append(measured, lp.phase(conns, per)...)
		to, err := serverCPU(srv.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		spans = append(spans, span{from, to})
	}
	stolen, err := steal.share()
	if err != nil {
		return nil, err
	}
	if p.traced {
		if after, err = scrape(client, srv.base); err != nil {
			return nil, err
		}
	}
	select {
	case <-p.stop:
		return nil, fmt.Errorf("interrupted")
	default:
	}
	recall := recallProbe(client, srv.base, ref, p.seed, o)
	rss, err := peakRSS(fmt.Sprint(srv.cmd.Process.Pid))
	if err != nil {
		o.fail("reading server memory: %v", err)
	}
	if err := srv.stop(); err != nil {
		o.fail("server shutdown: %v", err)
	}

	ws, reloadTimes, err := sliceStats(measured, spans)
	if err != nil {
		return nil, err
	}
	if len(reloadTimes) != 1 {
		o.fail("%d reloads completed in the measured time, want 1", len(reloadTimes))
	}
	overlap, sd := reloadOverlap(measured), slowdown(passes, nominalHTTP)
	fmt.Fprintf(os.Stderr, "perfbench: serve-mix seed %d: %s; %d reloads overlapping %.2f%% of requests, recall@10 %.4f, reference slowdown %.3f, host steal %.1f%%\n",
		p.seed, ws.summary(sd), len(reloadTimes), 100*overlap, recall, sd, 100*stolen)
	if p.traced {
		transportMetrics(o, measured, before, after)
		o.metrics["serve.reload_s"] = median(reloadTimes)
		o.metrics["serve.reload_overlap_share"] = overlap
		return o, nil
	}
	o.metrics["setup_s"] = median(seconds(setups)) / sd
	o.metrics["latency_p50_s"] = median(ws.p50) / sd
	o.metrics["latency_p99_s"] = median(ws.p99) / sd
	o.metrics["throughput_ops_per_s"] = median(ws.throughput) * sd
	o.metrics["cpu_per_op_s"] = median(ws.cpuPerOp) / sd
	o.metrics["peak_rss_bytes"] = float64(rss)
	o.metrics["quality"] = recall
	return o, nil
}

// cpuTick is the server's CPU time at one moment.
type cpuTick struct {
	at  time.Time
	cpu time.Duration
}

// span is one measured slice: the server's CPU time at its start and
// end.
type span struct{ from, to cpuTick }

// sliced holds one value per measured slice, as measured.
type sliced struct {
	throughput, p50, p99, cpuPerOp []float64
	requests                       int
	tailQ, tailV                   float64
}

// summary renders the per-slice medians as measured and scaled by sd.
func (w *sliced) summary(sd float64) string {
	tp, p50, p99, cpu := median(w.throughput), 1e6*median(w.p50), 1e6*median(w.p99), 1e6*median(w.cpuPerOp)
	return fmt.Sprintf("%d requests; per-slice medians as measured %.0f req/s, p50 %.1fµs, p99 %.1fµs, cpu %.1fµs/req (at nominal speed %.0f req/s, %.1fµs, %.1fµs, %.1fµs/req); all requests p%g %.1fµs",
		w.requests, tp, p50, p99, cpu, tp*sd, p50/sd, p99/sd, cpu/sd, 100*w.tailQ, 1e6*w.tailV)
}

// sliceStats splits the measured requests (reloads aside) into the
// slices by completion time, and returns per-slice throughput, latency
// percentiles and server CPU per request, plus the reload latencies.
func sliceStats(measured []sample, spans []span) (*sliced, []float64, error) {
	sort.Slice(spans, func(a, b int) bool { return spans[a].from.at.Before(spans[b].from.at) })
	per := make([][]float64, len(spans))
	var all, reloads []float64
	for _, s := range measured {
		if s.ep == endpointReload {
			reloads = append(reloads, s.latency.Seconds())
			continue
		}
		all = append(all, s.latency.Seconds())
		for k, sp := range spans {
			if !s.done.Before(sp.from.at) && s.done.Before(sp.to.at) {
				per[k] = append(per[k], s.latency.Seconds())
				break
			}
		}
	}
	w := &sliced{requests: len(all)}
	for k, lats := range per {
		if len(lats) == 0 {
			continue
		}
		sp, sorted := spans[k], sortedCopy(lats)
		w.throughput = append(w.throughput, float64(len(lats))/sp.to.at.Sub(sp.from.at).Seconds())
		w.p50 = append(w.p50, quantile(sorted, 0.5))
		w.p99 = append(w.p99, quantile(sorted, 0.99))
		w.cpuPerOp = append(w.cpuPerOp, (sp.to.cpu-sp.from.cpu).Seconds()/float64(len(lats)))
	}
	if len(w.p50) == 0 {
		return nil, nil, fmt.Errorf("no requests completed in the measured time")
	}
	w.tailQ, w.tailV, _ = tailPercentile(sortedCopy(all))
	return w, reloads, nil
}

// loop is the closed-loop client: each worker sends its next request
// only after the previous one completed. Workers share one position in
// the request stream, so the sequence of requests sent is fixed by the
// seed whatever the interleaving.
type loop struct {
	client *http.Client
	base   string
	stream []request
	names  map[string]graph.NodeID
	traced bool
	stop   <-chan struct{}
	next   atomic.Int64
	// reloadAt are the times at which the first worker to come free
	// sends a POST /admin/reload instead of its next stream request;
	// sent counts the reloads taken.
	reloadAt []time.Time
	sent     atomic.Int64
	mu       sync.Mutex // guards out
	out      *outcome
}

// takeReload reports whether the caller should send the next due
// reload now. Exactly one caller takes each reload.
func (l *loop) takeReload(now time.Time) bool {
	for {
		k := l.sent.Load()
		if k >= int64(len(l.reloadAt)) || now.Before(l.reloadAt[k]) {
			return false
		}
		if l.sent.CompareAndSwap(k, k+1) {
			return true
		}
	}
}

// reloadOverlap returns the share of measured requests, reloads aside,
// that were in flight at some moment while a reload was.
func reloadOverlap(measured []sample) float64 {
	type span struct{ from, to time.Time }
	var rs []span
	for _, s := range measured {
		if s.ep == endpointReload {
			rs = append(rs, span{s.done.Add(-s.latency), s.done})
		}
	}
	var n, hit int
	for _, s := range measured {
		if s.ep == endpointReload {
			continue
		}
		n++
		from := s.done.Add(-s.latency)
		for _, r := range rs {
			if from.Before(r.to) && r.from.Before(s.done) {
				hit++
				break
			}
		}
	}
	return ratio(float64(hit), float64(n))
}

var reloadRequest = request{ep: endpointReload, method: http.MethodPost, target: "/admin/reload"}

// phase runs workers closed-loop requesters for d and returns every
// completed request.
func (l *loop) phase(workers int, d time.Duration) []sample {
	deadline := time.Now().Add(d)
	results := make([][]sample, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = l.worker(deadline)
		}(w)
	}
	wg.Wait()
	var all []sample
	for _, r := range results {
		all = append(all, r...)
	}
	return all
}

func (l *loop) worker(deadline time.Time) []sample {
	var out []sample
	// The transport may call the hooks from its own goroutines.
	var mu sync.Mutex
	var gotConn, wrote, firstByte time.Time
	at := func(t *time.Time) {
		now := time.Now()
		mu.Lock()
		*t = now
		mu.Unlock()
	}
	ct := &httptrace.ClientTrace{
		GotConn:              func(httptrace.GotConnInfo) { at(&gotConn) },
		WroteRequest:         func(httptrace.WroteRequestInfo) { at(&wrote) },
		GotFirstResponseByte: func() { at(&firstByte) },
	}
	for time.Now().Before(deadline) {
		select {
		case <-l.stop:
			return out
		default:
		}
		var r *request
		if l.takeReload(time.Now()) {
			r = &reloadRequest
		} else {
			r = &l.stream[(l.next.Add(1)-1)%int64(len(l.stream))]
		}
		ctx := context.Background()
		if l.traced {
			ctx = httptrace.WithClientTrace(ctx, ct)
		}
		var body io.Reader
		if r.body != "" {
			body = strings.NewReader(r.body)
		}
		req, err := http.NewRequestWithContext(ctx, r.method, l.base+r.target, body)
		if err != nil {
			l.fail("building request: %v", err)
			continue
		}
		if r.body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		start := time.Now()
		resp, err := l.client.Do(req)
		var data []byte
		if err == nil {
			data, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		end := time.Now()
		l.mu.Lock()
		l.out.attempted++
		l.mu.Unlock()
		if err != nil {
			l.fail("%s %s: %v", r.method, r.target, err)
			continue
		}
		if err := validate(r, resp.StatusCode, data, l.names); err != nil {
			l.fail("%v", err)
		}
		s := sample{ep: r.ep, latency: end.Sub(start), done: end}
		if l.traced {
			mu.Lock()
			s.connWait, s.ttfb, s.read = gotConn.Sub(start), firstByte.Sub(wrote), end.Sub(firstByte)
			mu.Unlock()
		}
		out = append(out, s)
	}
	return out
}

// serverCPU reads the server's CPU time now.
func serverCPU(pid int) (cpuTick, error) {
	cpu, err := procCPU(pid)
	if err != nil {
		return cpuTick{}, fmt.Errorf("reading server CPU: %w", err)
	}
	return cpuTick{time.Now(), cpu}, nil
}

func (l *loop) fail(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.out.fail(format, args...)
}

// recallProbe compares /v1/knn with /v1/knn?exact=true on a fixed
// sample of nodes and returns the mean recall@k.
func recallProbe(client *http.Client, base string, ref *reference, seed int64, o *outcome) float64 {
	rng := rngstream.New(seed, streamRecall)
	var sum float64
	for i := 0; i < recallSample; i++ {
		id := graph.NodeID(rng.Intn(ref.g.NumNodes()))
		var got [2]map[string]bool
		for j, exact := range []bool{false, true} {
			r := ref.knnRequest(id, exact)
			o.attempted++
			data, status, err := get(client, base+r.target)
			if err == nil {
				err = validate(&r, status, data, ref.names)
			}
			if err != nil {
				o.fail("recall probe: %v", err)
				continue
			}
			var v struct {
				Neighbors []struct {
					Node string `json:"node"`
				} `json:"neighbors"`
			}
			if err := json.Unmarshal(data, &v); err != nil {
				o.fail("recall probe: %v", err)
				continue
			}
			got[j] = map[string]bool{}
			for _, nb := range v.Neighbors {
				got[j][nb.Node] = true
			}
		}
		hit := 0
		for n := range got[1] {
			if got[0][n] {
				hit++
			}
		}
		sum += float64(hit) / knnK
	}
	return sum / recallSample
}

func get(client *http.Client, url string) ([]byte, int, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

// serverMetrics is the part of transnserve's /metrics document the
// traced run reads.
type serverMetrics struct {
	Counters   map[string]int64 `json:"counters"`
	Histograms map[string]struct {
		Sum   float64 `json:"sum"`
		Count int64   `json:"count"`
	} `json:"histograms"`
}

func scrape(client *http.Client, base string) (serverMetrics, error) {
	var m serverMetrics
	data, status, err := get(client, base+"/metrics")
	if err != nil || status != http.StatusOK {
		return m, fmt.Errorf("scraping /metrics: status %d: %v", status, err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("decoding /metrics: %w", err)
	}
	return m, nil
}

// transportMetrics fills the client-phase and server-counter metrics of
// a traced serve run.
func transportMetrics(o *outcome, measured []sample, before, after serverMetrics) {
	var conn, ttfb, read []float64
	for _, s := range measured {
		if s.ep == endpointReload {
			continue
		}
		conn = append(conn, s.connWait.Seconds())
		ttfb = append(ttfb, s.ttfb.Seconds())
		read = append(read, s.read.Seconds())
	}
	delta := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	hb, ha := before.Histograms["serve.latency_seconds"], after.Histograms["serve.latency_seconds"]
	handler := ratio(ha.Sum-hb.Sum, float64(ha.Count-hb.Count))
	hits, misses := delta("serve.cache_hits"), delta("serve.cache_misses")
	o.metrics["transport.conn_wait_s"] = median(conn)
	o.metrics["transport.ttfb_s"] = median(ttfb)
	o.metrics["transport.read_s"] = median(read)
	o.metrics["serve.handler_s"] = handler
	o.metrics["serve.unattributed_s"] = mean(ttfb) - handler
	o.metrics["serve.cache_hit_ratio"] = ratio(hits, hits+misses)
	o.metrics["serve.coalesced"] = delta("serve.coalesced")
	o.metrics["ann.dist_evals_per_query"] = ratio(delta("ann.dist_evals"), delta("ann.searches"))
}

// inProcessMetrics times the layers under the handlers on the same
// snapshot and request stream: HNSW search, translator forward passes
// and fold-in inference, plus the preparation and open timings.
func inProcessMetrics(o *outcome, ref *reference, stream []request, ps *preparedSnapshot) {
	var search, translate, infer []time.Duration
	final := ref.f.FinalTable()
	for i := range stream {
		r := &stream[i]
		switch {
		case r.ep == load.EndpointKNN && len(search) < inProcessCalls:
			start := time.Now()
			_, _, err := ref.ix.Search(final.Row(int(r.id)), ref.norms[r.id], knnK+1, 0)
			search = append(search, time.Since(start))
			if err != nil {
				o.fail("in-process search: %v", err)
			}
		case r.ep == load.EndpointTranslate && len(translate) < inProcessCalls:
			start := time.Now()
			_, err := ref.call(r)
			translate = append(translate, time.Since(start))
			if err != nil {
				o.fail("in-process translate: %v", err)
			}
		case r.ep == load.EndpointInfer && len(infer) < inProcessCalls:
			start := time.Now()
			_, err := ref.call(r)
			infer = append(infer, time.Since(start))
			if err != nil {
				o.fail("in-process infer: %v", err)
			}
		}
	}
	o.attempted += int64(len(search) + len(translate) + len(infer))
	o.metrics["ann.search_s"] = median(seconds(search))
	o.metrics["transn.translate_s"] = median(seconds(translate))
	o.metrics["transn.infer_s"] = median(seconds(infer))
	o.metrics["ann.build_s"] = ps.annBuild.Seconds()
	o.metrics["snapfmt.pack_s"] = ps.pack.Seconds()
	o.metrics["snapfmt.open_s"] = median(seconds(ref.openTimes))
}
