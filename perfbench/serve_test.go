package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"transn/internal/load"
)

// TestLoopAgainstStubServer drives the closed loop from several workers
// at once against a stub that answers embedding requests and reloads,
// with the client-phase hooks on.
func TestLoopAgainstStubServer(t *testing.T) {
	want := []float64{0.5, -1, 2.25}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/embedding", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(map[string]any{"embedding": want})
	})
	mux.HandleFunc("/admin/reload", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(map[string]any{"generation": 2})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	stream := []request{{ep: load.EndpointEmbedding, method: http.MethodGet, target: "/v1/embedding?node=a", want: want}}
	o := newOutcome()
	tr := &http.Transport{MaxIdleConnsPerHost: 4}
	defer tr.CloseIdleConnections()
	lp := &loop{client: &http.Client{Transport: tr}, base: srv.URL, stream: stream,
		traced: true, stop: make(chan struct{}), out: o}
	d, now := 300*time.Millisecond, time.Now()
	lp.reloadAt = []time.Time{now.Add(100 * time.Millisecond), now.Add(200 * time.Millisecond)}
	got := lp.phase(4, d)
	if o.failed != 0 {
		t.Fatalf("%d of %d requests failed", o.failed, o.attempted)
	}
	if int64(len(got)) != o.attempted || len(got) == 0 {
		t.Fatalf("%d samples for %d attempted requests", len(got), o.attempted)
	}
	var reloads []sample
	for _, s := range got {
		if s.ep == endpointReload {
			reloads = append(reloads, s)
		}
		if s.latency <= 0 || s.ttfb <= 0 || s.read < 0 || s.connWait < 0 {
			t.Fatalf("bad sample %+v", s)
		}
	}
	if len(reloads) != 2 {
		t.Fatalf("%d reloads, want 2", len(reloads))
	}
	// got is grouped by worker, not ordered by time.
	sort.Slice(reloads, func(a, b int) bool { return reloads[a].done.Before(reloads[b].done) })
	for i, r := range reloads {
		if sent := r.done.Add(-r.latency); sent.Before(lp.reloadAt[i]) {
			t.Errorf("reload %d sent at %v, before its time %v", i, sent, lp.reloadAt[i])
		}
	}
}

func TestReloadOverlap(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(from, to int) (time.Duration, time.Time) {
		return time.Duration(to-from) * time.Millisecond, t0.Add(time.Duration(to) * time.Millisecond)
	}
	mk := func(ep load.Endpoint, from, to int) sample {
		lat, done := at(from, to)
		return sample{ep: ep, latency: lat, done: done}
	}
	got := reloadOverlap([]sample{
		mk(endpointReload, 10, 20),
		mk(load.EndpointKNN, 0, 5),   // before
		mk(load.EndpointKNN, 5, 11),  // ends inside
		mk(load.EndpointKNN, 12, 15), // inside
		mk(load.EndpointKNN, 19, 30), // starts inside
		mk(load.EndpointKNN, 20, 30), // starts as the reload ends
	})
	if got != 3.0/5 {
		t.Errorf("overlap %v, want 0.6", got)
	}
	if got := reloadOverlap([]sample{mk(load.EndpointKNN, 0, 5)}); got != 0 {
		t.Errorf("overlap without reloads %v, want 0", got)
	}
}
