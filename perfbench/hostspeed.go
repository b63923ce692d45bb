package main

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"net/http"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed.
//
// The benchmark runs on a few vCPUs of a shared host whose speed changes
// by up to 2x over minutes, and each vCPU changes on its own (see
// BASELINE.md). Medians inside a run cannot remove a slowdown that
// lasts the whole run, so the untraced runs also time a fixed reference
// workload, interleaved with the measurement, and report every
// end-to-end time scaled to the speed at which that reference takes its
// nominal time:
//
//	reported time = measured time / slowdown
//	reported rate = measured rate * slowdown
//	slowdown      = reference time / nominal reference time
//
// The reference workloads belong to the benchmark and use nothing of the
// program, so a change to the program moves the measured times and
// leaves the slowdown alone. The nominal times fix the unit only: they
// are round values near the references' pass times on the host
// BASELINE.md describes.
const (
	// nominalCompute is the nominal time of one computeRef pass.
	nominalCompute = 1800 * time.Microsecond
	// nominalHTTP is the nominal time of one httpRef pass.
	nominalHTTP = 300 * time.Millisecond
)

// slowdown returns how much slower than nominal the host ran the
// reference passes: the median pass time over the nominal time.
func slowdown(passes []time.Duration, nominal time.Duration) float64 {
	if len(passes) == 0 {
		return 1
	}
	return median(seconds(passes)) / nominal.Seconds()
}

const (
	refDim   = 128   // the embedding width of DefaultConfig
	refRows  = 16384 // a 16 MiB table, well beyond the caches' share of one vCPU
	refSteps = 2000  // pair updates per pass
	// refBytes is the size of the reference table.
	refBytes = refRows * refDim * 8
)

// computeRef is the reference for training: skip-gram-like pair
// updates (a dot product, a sigmoid and two axpys) on random rows of a
// large float64 table, on the goroutine that trains. Train's time
// follows memory contention on the host as well as the vCPU's speed,
// and a table larger than the caches makes the reference follow both.
//
// The table is mapped outside the Go heap, so it does not change when
// the collector runs, and every page is touched at creation, so it adds
// exactly refBytes to the process's resident set throughout. Each
// update moves the pair's dot product toward 0, so the values stay
// bounded however many passes run.
type computeRef struct {
	mem   []byte
	table []float64
	grad  [refDim]float64
}

func newComputeRef() (*computeRef, error) {
	mem, err := syscall.Mmap(-1, 0, refBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, fmt.Errorf("mapping the reference table: %w", err)
	}
	r := &computeRef{mem: mem, table: unsafe.Slice((*float64)(unsafe.Pointer(&mem[0])), refRows*refDim)}
	for i := range r.table {
		r.table[i] = float64(i%97)/970 - 0.05
	}
	return r, nil
}

// pass runs the reference once and returns its wall and CPU time.
func (r *computeRef) pass() (wall, cpu time.Duration) {
	start, cpu0 := time.Now(), processCPU()
	x := uint64(1)
	for s := 0; s < refSteps; s++ {
		x = x*6364136223846793005 + 1442695040888963407
		a := r.table[int(x>>33%refRows)*refDim:][:refDim]
		b := r.table[int(x>>13%refRows)*refDim:][:refDim]
		var dot float64
		for i := range a {
			dot += a[i] * b[i]
		}
		g := 0.0025 * (1/(1+math.Exp(-dot)) - 0.5)
		for i := range a {
			r.grad[i] = g * b[i]
			b[i] -= g * a[i]
		}
		for i := range a {
			a[i] -= r.grad[i]
		}
	}
	return time.Since(start), processCPU() - cpu0
}

// close unmaps the table.
func (r *computeRef) close() error { return syscall.Munmap(r.mem) }

// refRequests is the number of requests of one httpRef pass, spread
// over its connections.
const refRequests = 8000

// httpRef is the reference for serving: a closed loop of GETs over
// keep-alive connections to a static JSON handler in this process,
// with the connection count of the serve workload. It runs while the
// measured server is idle.
type httpRef struct {
	ln     net.Listener
	srv    *http.Server
	done   chan struct{}
	client *http.Client
	tr     *http.Transport
	url    string
	conns  int
	body   []byte
}

func newHTTPRef(conns int) (*httpRef, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("reference server: %w", err)
	}
	// About the size of a 128-wide embedding response.
	body := []byte(`{"node":"n0","embedding":[` + string(bytes.Repeat([]byte("-0.012345678901234567,"), 63)) + `0.5]}`)
	r := &httpRef{ln: ln, done: make(chan struct{}), conns: conns, body: body, url: "http://" + ln.Addr().String() + "/"}
	r.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
	})}
	go func() {
		defer close(r.done)
		_ = r.srv.Serve(ln)
	}()
	r.tr = &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}
	r.client = &http.Client{Transport: r.tr, Timeout: 30 * time.Second}
	return r, nil
}

// pass runs refRequests requests and returns their wall time.
func (r *httpRef) pass() (time.Duration, error) {
	var wg sync.WaitGroup
	errs := make([]error, r.conns)
	start := time.Now()
	for w := 0; w < r.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < refRequests; i += r.conns {
				data, status, err := get(r.client, r.url)
				if err == nil && (status != http.StatusOK || !bytes.Equal(data, r.body)) {
					err = fmt.Errorf("status %d, %d bytes", status, len(data))
				}
				if err != nil {
					errs[w] = fmt.Errorf("reference request: %w", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	d := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return d, nil
}

// close stops the reference server and waits for it.
func (r *httpRef) close() {
	r.tr.CloseIdleConnections()
	_ = r.srv.Close()
	<-r.done
}
