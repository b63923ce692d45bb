package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"transn/internal/ann"
	"transn/internal/graph"
	"transn/internal/mat"
	"transn/internal/rngstream"
	"transn/internal/snapfmt"
	"transn/internal/transn"
)

// Shape of the synthetic serving graph. 20k nodes puts the final table
// above the 10k-row point where HNSW search clearly beats a brute scan,
// so k-NN requests exercise the index rather than a trivially small one.
const (
	numUsers       = 12000
	numItems       = 6000
	numTags        = 2000
	numCommunities = 16
	userFriends    = 4   // UU edges drawn per user
	userItems      = 4   // UI edges drawn per user
	itemTags       = 3   // IT edges drawn per item
	inCommunity    = 0.8 // chance an edge stays inside the node's community
)

// RNG stream kinds for input generation; each consumer derives its own
// stream from the workload seed so adding one consumer never shifts
// another's draws.
const (
	streamGraph int64 = iota + 1
	streamTables
	streamTranslators
	streamRequests
	streamRecall
	streamTrain
	streamSplit
)

// servingGraph builds a heterogeneous graph with planted communities:
// users (U), items (I) and tags (T) joined by UU, UI and IT edges. The
// UU/UI and UI/IT views share nodes, so the model has two view-pairs
// and four translation directions. community[id] is each node's
// planted community.
func servingGraph(seed int64) (*graph.Graph, []int, error) {
	rng := rngstream.New(seed, streamGraph)
	b := graph.NewBuilder()
	type kind struct {
		prefix string
		n      int
	}
	kinds := []kind{{"u", numUsers}, {"i", numItems}, {"t", numTags}}
	var community []int
	members := make([][][]graph.NodeID, len(kinds)) // [kind][community]nodes
	first := make([]graph.NodeID, len(kinds))
	for k, kd := range kinds {
		t := b.NodeType(kd.prefix)
		members[k] = make([][]graph.NodeID, numCommunities)
		for i := 0; i < kd.n; i++ {
			id := b.AddNode(t, fmt.Sprintf("%s%d", kd.prefix, i))
			if i == 0 {
				first[k] = id
			}
			c := rng.Intn(numCommunities)
			community = append(community, c)
			members[k][c] = append(members[k][c], id)
		}
	}
	seen := map[[2]graph.NodeID]bool{}
	link := func(u graph.NodeID, dstKind int, et graph.EdgeType) {
		var v graph.NodeID
		if rng.Float64() < inCommunity {
			pool := members[dstKind][community[u]]
			if len(pool) == 0 {
				return
			}
			v = pool[rng.Intn(len(pool))]
		} else {
			v = first[dstKind] + graph.NodeID(rng.Intn(kinds[dstKind].n))
		}
		key := [2]graph.NodeID{u, v}
		if v < u {
			key = [2]graph.NodeID{v, u}
		}
		if u == v || seen[key] {
			return
		}
		seen[key] = true
		b.AddEdge(u, v, et, float64(1+rng.Intn(3)))
	}
	uu, ui, it := b.EdgeType("UU"), b.EdgeType("UI"), b.EdgeType("IT")
	for i := 0; i < numUsers; i++ {
		u := first[0] + graph.NodeID(i)
		for j := 0; j < userFriends; j++ {
			link(u, 0, uu)
		}
		for j := 0; j < userItems; j++ {
			link(u, 1, ui)
		}
	}
	for i := 0; i < numItems; i++ {
		for j := 0; j < itemTags; j++ {
			link(first[1]+graph.NodeID(i), 2, it)
		}
	}
	g, err := b.Build()
	return g, community, err
}

// servingModel assembles a model with clustered view tables (the node's
// community centroid plus per-view noise) and freshly initialized
// translators, the shape a trained model has without minutes of
// training.
func servingModel(g *graph.Graph, community []int, seed int64) (*transn.Model, error) {
	cfg := transn.DefaultConfig()
	cfg.Seed = seed
	cfg.Workers = 1
	dim := cfg.Dim
	rng := rngstream.New(seed, streamTables)
	centroids := mat.New(numCommunities, dim)
	for i := range centroids.Data {
		centroids.Data[i] = rng.NormFloat64()
	}
	e := transn.Export{Cfg: cfg}
	for _, v := range g.Views() {
		in, out := mat.New(v.NumNodes(), dim), mat.New(v.NumNodes(), dim)
		for l := 0; l < v.NumNodes(); l++ {
			c := centroids.Row(community[v.Global(l)])
			row, orow := in.Row(l), out.Row(l)
			for d := range row {
				row[d] = (c[d] + 0.7*rng.NormFloat64()) / 8
				orow[d] = 0.1 * rng.NormFloat64()
			}
		}
		e.EmbIn = append(e.EmbIn, in)
		e.EmbOut = append(e.EmbOut, out)
	}
	for p := range g.ViewPairs() {
		var w, bias [2][]*mat.Dense
		for side := 0; side < 2; side++ {
			tr := transn.NewTranslator(cfg.Encoders, cfg.CrossPathLen, false, cfg.LRCross,
				rngstream.New(seed, streamTranslators, int64(p), int64(side)))
			w[side], bias[side] = tr.Ws, tr.Bs
		}
		e.TransW = append(e.TransW, w)
		e.TransB = append(e.TransB, bias)
	}
	return transn.FromExport(e, g)
}

// preparedSnapshot is a serving input on disk plus the timings of the
// preparation steps the traced run reports.
type preparedSnapshot struct {
	graphPath, snapPath string
	annBuild, pack      time.Duration
}

// prepareSnapshot writes the graph TSV and the packed .snap (with an
// HNSW section) into dir. Both are written under temporary names,
// synced and renamed into place, so no reader ever maps a file that is
// still being written, and the files are never rewritten afterwards.
func prepareSnapshot(dir string, seed int64) (*preparedSnapshot, error) {
	g, community, err := servingGraph(seed)
	if err != nil {
		return nil, fmt.Errorf("building serving graph: %w", err)
	}
	m, err := servingModel(g, community, seed)
	if err != nil {
		return nil, fmt.Errorf("assembling serving model: %w", err)
	}
	src, err := snapfmt.FromModel(m, g)
	if err != nil {
		return nil, err
	}
	ps := &preparedSnapshot{
		graphPath: filepath.Join(dir, "serve.tsv"),
		snapPath:  filepath.Join(dir, "serve.snap"),
	}
	start := time.Now()
	ix, err := ann.Build(src.Final, nil, ann.Config{Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("building ann index: %w", err)
	}
	src.ANN = ix.AppendTo(nil)
	ps.annBuild = time.Since(start)
	if err := writeAtomic(ps.graphPath, func(w *bufio.Writer) error { return graph.Store(w, g) }); err != nil {
		return nil, err
	}
	start = time.Now()
	if err := writeAtomic(ps.snapPath, func(w *bufio.Writer) error { return snapfmt.Pack(w, src) }); err != nil {
		return nil, err
	}
	ps.pack = time.Since(start)
	return ps, nil
}

// writeAtomic writes path through a temporary file in the same
// directory: write, flush, fsync, close, rename.
func writeAtomic(path string, write func(*bufio.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	w := bufio.NewWriterSize(tmp, 1<<20)
	if err := write(w); err != nil {
		tmp.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("syncing %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", path, err)
	}
	return os.Rename(tmp.Name(), path)
}
