package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"sort"
	"time"

	"transn/internal/ann"
	"transn/internal/graph"
	"transn/internal/load"
	"transn/internal/rngstream"
	"transn/internal/snapfmt"
	"transn/internal/transn"
)

// knnK is the k of every /v1/knn request.
const knnK = 10

// endpointReload marks a POST /admin/reload slot in the request stream.
const endpointReload load.Endpoint = "reload"

// request is one generated request with the response it must produce.
type request struct {
	ep     load.Endpoint
	method string
	target string // path and query
	body   string // POST body, empty for GET
	node   string // the queried node (knn)
	// want is the exact vector an embedding, translate or infer
	// response must carry.
	want []float64

	// Arguments of the equivalent in-process call.
	id       graph.NodeID
	from, to int
	edges    []transn.NeighborEdge
}

// reference is the in-process view of the served snapshot: the same
// graph TSV and .snap file the server loads, opened the same way.
type reference struct {
	g     *graph.Graph
	snap  *snapfmt.Snapshot
	f     *transn.Frozen
	ix    *ann.Index
	norms []float64
	names map[string]graph.NodeID
	views []string // view index to edge-type name
	// openTimes are the durations of repeated snapfmt.Open calls.
	openTimes []time.Duration
}

// snapOpens is how many times the reference opens the .snap file;
// snapfmt.open_s is their median.
const snapOpens = 5

func openReference(ps *preparedSnapshot) (*reference, error) {
	gf, err := os.Open(ps.graphPath)
	if err != nil {
		return nil, err
	}
	defer gf.Close()
	g, err := graph.Load(gf)
	if err != nil {
		return nil, fmt.Errorf("loading graph: %w", err)
	}
	ref := &reference{g: g, names: map[string]graph.NodeID{}}
	for i := 0; i < snapOpens; i++ {
		start := time.Now()
		s, err := snapfmt.Open(ps.snapPath, snapfmt.OpenOptions{})
		if err != nil {
			return nil, fmt.Errorf("opening snapshot: %w", err)
		}
		ref.openTimes = append(ref.openTimes, time.Since(start))
		if ref.snap == nil {
			ref.snap = s
		} else if err := s.Close(); err != nil {
			return nil, err
		}
	}
	m, err := ref.snap.Model(g)
	if err != nil {
		return nil, err
	}
	if ref.f, err = m.FreezeWithFinal(ref.snap.Final()); err != nil {
		return nil, err
	}
	ref.norms = ann.Norms(ref.f.FinalTable())
	if ref.ix, err = ann.Decode(ref.snap.ANN(), ref.f.FinalTable(), ref.norms); err != nil {
		return nil, fmt.Errorf("decoding ann index: %w", err)
	}
	for _, n := range g.Nodes {
		ref.names[n.Name] = n.ID
	}
	for _, v := range ref.f.Views() {
		ref.views = append(ref.views, g.EdgeTypeNames[v.Type])
	}
	return ref, nil
}

func (ref *reference) close() error { return ref.snap.Close() }

func (ref *reference) name(id graph.NodeID) string { return ref.g.Nodes[id].Name }

// knnRequest asks for the k nearest neighbours of id through the index,
// or by brute force when exact is set.
func (ref *reference) knnRequest(id graph.NodeID, exact bool) request {
	q := url.Values{"node": {ref.name(id)}, "k": {fmt.Sprint(knnK)}}
	if exact {
		q.Set("exact", "true")
	}
	return request{ep: load.EndpointKNN, method: http.MethodGet,
		target: "/v1/knn?" + q.Encode(), node: ref.name(id), id: id}
}

// viewsOf lists the views that contain id.
func (ref *reference) viewsOf(id graph.NodeID) []int {
	var out []int
	for vi, v := range ref.f.Views() {
		if v.Contains(id) {
			out = append(out, vi)
		}
	}
	return out
}

// buildStream generates n requests from the seed. It draws endpoints by
// load.DefaultMix and nodes from a Zipf popularity, so translate and
// infer keys repeat (cache hits) but span far more keys than the
// server's LRU holds (misses). Expected vectors come from the in-process
// reference, memoized per distinct request.
func buildStream(ref *reference, seed int64, n int) ([]request, error) {
	rng := rngstream.New(seed, streamRequests)
	nodes := ref.g.NumNodes()
	out := make([]request, 0, n)
	weights := load.DefaultMix()
	var total float64
	for _, ep := range load.Endpoints() {
		total += weights[ep]
	}
	pop := newZipf(rng, nodes)
	memo := map[string][]float64{}
	for len(out) < n {
		x := rng.Float64() * total
		ep := load.EndpointInfer
		for _, e := range load.Endpoints() {
			if x -= weights[e]; x < 0 {
				ep = e
				break
			}
		}
		var r request
		var err error
		switch ep {
		case load.EndpointEmbedding:
			id := graph.NodeID(pop.draw())
			r = request{ep: ep, method: http.MethodGet, id: id,
				target: "/v1/embedding?" + url.Values{"node": {ref.name(id)}}.Encode(),
				want:   ref.f.Final(id)}
		case load.EndpointTranslate:
			r, err = translateRequest(ref, rng, pop)
		case load.EndpointKNN:
			r = ref.knnRequest(graph.NodeID(pop.draw()), false)
		case load.EndpointInfer:
			r, err = inferRequest(ref, rng, pop)
		}
		if err != nil {
			return nil, err
		}
		key := r.method + " " + r.target + " " + r.body
		if r.want == nil && r.ep != load.EndpointKNN {
			if r.want = memo[key]; r.want == nil {
				if r.want, err = ref.call(&r); err != nil {
					return nil, fmt.Errorf("reference %s: %w", key, err)
				}
				memo[key] = r.want
			}
		}
		out = append(out, r)
	}
	return out, nil
}

// call runs the in-process equivalent of a translate or infer request.
func (ref *reference) call(r *request) ([]float64, error) {
	if r.ep == load.EndpointTranslate {
		return ref.f.TranslateNode(r.from, r.to, r.id)
	}
	return ref.f.InferNode(r.edges)
}

// translateRequest picks a popular node that sits in at least one
// view-pair and one of its translation directions.
func translateRequest(ref *reference, rng *rand.Rand, pop *zipf) (request, error) {
	views := ref.f.Views()
	for tries := 0; tries < 1000; tries++ {
		id := graph.NodeID(pop.draw())
		var dirs [][2]int
		for _, pr := range ref.f.ViewPairs() {
			if views[pr.I].Contains(id) {
				dirs = append(dirs, [2]int{pr.I, pr.J})
			}
			if views[pr.J].Contains(id) {
				dirs = append(dirs, [2]int{pr.J, pr.I})
			}
		}
		if len(dirs) == 0 {
			continue
		}
		d := dirs[rng.Intn(len(dirs))]
		q := url.Values{"node": {ref.name(id)}, "from": {ref.views[d[0]]}, "to": {ref.views[d[1]]}}
		return request{ep: load.EndpointTranslate, method: http.MethodGet,
			target: "/v1/translate?" + q.Encode(), id: id, from: d[0], to: d[1]}, nil
	}
	return request{}, fmt.Errorf("no node with a translation direction")
}

type inferEdge struct {
	Neighbor string  `json:"neighbor"`
	Type     string  `json:"type"`
	Weight   float64 `json:"weight"`
}

// inferRequest describes an unseen node by one to three edges to
// popular nodes, each in a view its neighbour belongs to.
func inferRequest(ref *reference, rng *rand.Rand, pop *zipf) (request, error) {
	r := request{ep: load.EndpointInfer, method: http.MethodPost, target: "/v1/infer"}
	var body struct {
		Edges []inferEdge `json:"edges"`
	}
	want := 1 + rng.Intn(3)
	for tries := 0; len(body.Edges) < want && tries < 1000; tries++ {
		id := graph.NodeID(pop.draw())
		vs := ref.viewsOf(id)
		if len(vs) == 0 {
			continue
		}
		vi := vs[rng.Intn(len(vs))]
		w := float64(1 + rng.Intn(3))
		body.Edges = append(body.Edges, inferEdge{Neighbor: ref.name(id), Type: ref.views[vi], Weight: w})
		r.edges = append(r.edges, transn.NeighborEdge{Neighbor: id, Type: ref.f.Views()[vi].Type, Weight: w})
	}
	if len(body.Edges) < want {
		return request{}, fmt.Errorf("no node with a view to infer from")
	}
	b, err := json.Marshal(body)
	if err != nil {
		return request{}, err
	}
	r.body = string(b)
	return r, nil
}

// validate checks one response against its request: status 200, and a
// body equal to the in-process reference (vectors), or k distinct
// known neighbours other than the query in non-increasing similarity
// (k-NN), or a reload to a later generation.
func validate(r *request, status int, body []byte, names map[string]graph.NodeID) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %.200s", r.method, r.target, status, body)
	}
	switch r.ep {
	case load.EndpointKNN:
		var v struct {
			K         int `json:"k"`
			Neighbors []struct {
				Node       string  `json:"node"`
				Similarity float64 `json:"similarity"`
			} `json:"neighbors"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return fmt.Errorf("%s: decoding: %v", r.target, err)
		}
		if v.K != knnK || len(v.Neighbors) != knnK {
			return fmt.Errorf("%s: k=%d with %d neighbours, want %d", r.target, v.K, len(v.Neighbors), knnK)
		}
		seen := map[string]bool{}
		for i, nb := range v.Neighbors {
			if _, ok := names[nb.Node]; !ok || nb.Node == r.node || seen[nb.Node] {
				return fmt.Errorf("%s: neighbour %d %q is unknown, repeated or the query", r.target, i, nb.Node)
			}
			seen[nb.Node] = true
			if math.IsNaN(nb.Similarity) || nb.Similarity > 1+1e-9 || nb.Similarity < -1-1e-9 {
				return fmt.Errorf("%s: neighbour %d similarity %v out of range", r.target, i, nb.Similarity)
			}
			if i > 0 && nb.Similarity > v.Neighbors[i-1].Similarity {
				return fmt.Errorf("%s: neighbours %d and %d out of score order", r.target, i-1, i)
			}
		}
	case endpointReload:
		var v struct {
			Generation uint64 `json:"generation"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return fmt.Errorf("reload: decoding: %v", err)
		}
		if v.Generation < 2 {
			return fmt.Errorf("reload: generation %d, want at least 2", v.Generation)
		}
	default:
		var v struct {
			Embedding []float64 `json:"embedding"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return fmt.Errorf("%s: decoding: %v", r.target, err)
		}
		if len(v.Embedding) != len(r.want) {
			return fmt.Errorf("%s %s: %d values, want %d", r.target, r.body, len(v.Embedding), len(r.want))
		}
		for i, x := range v.Embedding {
			if x != r.want[i] {
				return fmt.Errorf("%s %s: value %d is %v, want %v", r.target, r.body, i, x, r.want[i])
			}
		}
	}
	return nil
}

// zipfAlpha is the exponent of the node popularity: the node of rank r
// is requested with probability proportional to 1/r^zipfAlpha. It is
// chosen, not measured on TransN traffic: 0.8 lies in the 0.64–0.83
// range that Breslau et al. fitted to web proxy traces ("Web Caching
// and Zipf-like Distributions: Evidence and Implications", INFOCOM
// 1999).
const zipfAlpha = 0.8

// zipf draws indices in [0, n) with Zipf-like popularity whose rank
// order is a seeded permutation, so the popular nodes are spread over
// every node type instead of being the lowest ids.
type zipf struct {
	rng  *rand.Rand
	cdf  []float64 // cdf[r]: unnormalized weight of ranks 0..r
	perm []int
}

func newZipf(rng *rand.Rand, n int) *zipf {
	z := &zipf{rng: rng, cdf: make([]float64, n), perm: rng.Perm(n)}
	var sum float64
	for r := range z.cdf {
		sum += math.Pow(float64(r+1), -zipfAlpha)
		z.cdf[r] = sum
	}
	return z
}

func (z *zipf) draw() int {
	u := z.rng.Float64() * z.cdf[len(z.cdf)-1]
	r := sort.SearchFloat64s(z.cdf, u)
	if r == len(z.cdf) {
		r--
	}
	return z.perm[r]
}
