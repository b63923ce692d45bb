// Package line implements LINE (Tang et al., WWW 2015) with second-order
// proximity, the variant the paper compares against. Types are ignored:
// the network is treated as a homogeneous weighted graph. Training
// follows the original edge-sampling scheme: edges are drawn from an
// alias table proportional to weight and each draw performs one SGNS
// update in both directions.
package line

import (
	"fmt"
	"math/rand"

	"transn/internal/graph"
	"transn/internal/mat"
	"transn/internal/skipgram"
	"transn/internal/walk"
)

// Method is the LINE(2nd) baseline. Zero values take defaults.
type Method struct {
	// SamplesPerEdge controls total updates: |E|·SamplesPerEdge
	// (default 300).
	SamplesPerEdge int
	// Negative is the number of negative samples per update (default 5).
	Negative int
	// LR is the initial learning rate, linearly decayed (default 0.025).
	LR float64
}

// Name implements baselines.Method.
func (Method) Name() string { return "LINE" }

// Embed implements baselines.Method.
func (m Method) Embed(g *graph.Graph, dim int, seed int64) (*mat.Dense, error) {
	if m.SamplesPerEdge == 0 {
		m.SamplesPerEdge = 300
	}
	if m.Negative == 0 {
		m.Negative = 5
	}
	if m.LR == 0 {
		m.LR = 0.025
	}
	if g.NumEdges() == 0 {
		return nil, fmt.Errorf("line: graph has no edges")
	}
	rng := rand.New(rand.NewSource(seed))
	n := g.NumNodes()
	model := skipgram.NewModel(n, dim, rng)

	// Edge alias table over weights; negatives ∝ degree^0.75.
	ws := make([]float64, g.NumEdges())
	deg := make([]float64, n)
	for i, e := range g.Edges {
		ws[i] = e.Weight
		deg[e.U] += e.Weight
		deg[e.V] += e.Weight
	}
	edgeAlias := walk.NewAlias(ws)
	neg := skipgram.NewNegSampler(deg)

	total := g.NumEdges() * m.SamplesPerEdge
	grad := make([]float64, model.Dim())
	for s := 0; s < total; s++ {
		lr := m.LR * (1 - float64(s)/float64(total))
		if lr < m.LR*1e-4 {
			lr = m.LR * 1e-4
		}
		e := g.Edges[edgeAlias.Draw(rng)]
		// Second-order proximity: each endpoint predicts the other as
		// context.
		model.TrainPair(int(e.U), int(e.V), m.Negative, lr, neg, rng, grad)
		model.TrainPair(int(e.V), int(e.U), m.Negative, lr, neg, rng, grad)
	}
	return model.In, nil
}
