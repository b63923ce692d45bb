package autodiff

import (
	"math"
	"math/rand"
	"testing"

	"transn/internal/mat"
)

// reuseGraph builds a scalar loss over r×c inputs that touches every op
// the tape provides, so a recycled matrix that is stale, undersized or
// shared between two live tensors changes some value or gradient.
type reuseGraph struct {
	params []*mat.Dense // X, Y (r×c), W (r×r), bcol (r×1), brow (1×c)
	sparse *mat.Sparse  // r×r
	idx    []int
	labels []float64
}

func newReuseGraph(r, c int, seed int64) *reuseGraph {
	rng := rand.New(rand.NewSource(seed))
	g := &reuseGraph{
		params: []*mat.Dense{
			mat.RandN(r, c, 0.5, rng),
			mat.RandN(r, c, 0.5, rng),
			mat.RandN(r, r, 0.5, rng),
			mat.RandN(r, 1, 0.5, rng),
			mat.RandN(1, c, 0.5, rng),
		},
		idx:    []int{r - 1, 0, r / 2},
		labels: []float64{1, -1, 1},
	}
	rows := make([][]mat.SparseEntry, r)
	for i := range rows {
		rows[i] = []mat.SparseEntry{{Col: i, Val: 0.5}, {Col: (i + 1) % r, Val: -0.25}}
	}
	g.sparse = mat.NewSparse(r, r, rows)
	return g
}

// build records the graph on tp, runs Backward, and returns every
// recorded tensor: the parameters first, the loss last.
func (g *reuseGraph) build(tp *Tape) []*Tensor {
	p := make([]*Tensor, len(g.params))
	for i, m := range g.params {
		p[i] = tp.Param(m)
	}
	x, y, w, bcol, brow := p[0], p[1], p[2], p[3], p[4]
	h := tp.AddRowBroadcast(tp.AddColBroadcast(tp.MatMul(w, x), bcol), brow)
	att := tp.SoftmaxRows(tp.Scale(0.5, tp.MatMulT(h, h)))
	h2 := tp.LayerNormRows(tp.Add(h, tp.MatMul(att, h)))
	e := tp.ElemMul(tp.Add(tp.Relu(tp.Sub(h2, y)), tp.Sigmoid(h2)), tp.Tanh(y))
	ll := tp.LogisticLoss(tp.SumRows(tp.GatherRows(e, g.idx)), g.labels)
	sp := tp.MeanAll(tp.Square(tp.SparseMatMul(g.sparse, x)))
	loss := tp.Add(tp.Add(ll, sp), tp.SumAll(tp.Scale(1e-3, e)))
	tp.Backward(loss)
	return append(p, h, att, h2, e, ll, sp, loss)
}

// snapshot copies the values and gradients of ts off the tape.
func snapshot(ts []*Tensor) (vals, grads []*mat.Dense) {
	for _, t := range ts {
		vals = append(vals, t.Value.Clone())
		if t.Grad != nil {
			grads = append(grads, t.Grad.Clone())
		} else {
			grads = append(grads, nil)
		}
	}
	return vals, grads
}

func sameBits(a, b *mat.Dense) bool {
	if a == nil || b == nil {
		return a == b
	}
	if !a.SameShape(b) {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// TestResetTapeMatchesFreshTape rebuilds graphs of changing shapes on
// one tape and requires every value and gradient to match, bit for bit,
// the same graph built on a fresh tape. The 8×64 → 5×3 → 8×64 sequence
// hands large recycled matrices to small tensors and back, so stale
// contents or a wrongly sized reuse would show.
func TestResetTapeMatchesFreshTape(t *testing.T) {
	reused := NewTape()
	for pass, shape := range [][2]int{{8, 64}, {5, 3}, {8, 64}} {
		g := newReuseGraph(shape[0], shape[1], int64(pass+1))
		wantV, wantG := snapshot(g.build(NewTape()))

		reused.Reset()
		gotV, gotG := snapshot(g.build(reused))
		if len(gotV) != len(wantV) {
			t.Fatalf("pass %d: %d tensors, want %d", pass, len(gotV), len(wantV))
		}
		for i := range wantV {
			if !sameBits(gotV[i], wantV[i]) {
				t.Errorf("pass %d (%dx%d): tensor %d value differs on the reset tape", pass, shape[0], shape[1], i)
			}
			if !sameBits(gotG[i], wantG[i]) {
				t.Errorf("pass %d (%dx%d): tensor %d gradient differs on the reset tape", pass, shape[0], shape[1], i)
			}
		}
	}
}

// TestGradCheckOnResetTape runs GradCheck with a loss function that
// resets and refills one shared tape instead of making a new one.
func TestGradCheckOnResetTape(t *testing.T) {
	g := newReuseGraph(4, 5, 9)
	tp := NewTape()
	lossFn := func() (*Tensor, []*Tensor) {
		tp.Reset()
		ts := g.build(tp)
		return ts[len(ts)-1], ts[:len(g.params)]
	}
	if worst := GradCheck(g.params, lossFn, 1e-6); worst > gradTol {
		t.Fatalf("worst relative gradient error %g > %g on a reset tape", worst, gradTol)
	}
}

// TestResetTapeForwardAllocatesNothing pins the recycling itself: once
// warm, a forward pass over constants (no backward closures) draws every
// Tensor and matrix from the tape's earlier pass.
func TestResetTapeForwardAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, w := mat.RandN(8, 64, 0.5, rng), mat.RandN(8, 8, 0.5, rng)
	tp := NewTape()
	forward := func() {
		tp.Reset()
		cx, cw := tp.Constant(x), tp.Constant(w)
		att := tp.SoftmaxRows(tp.MatMulT(cx, cx))
		tp.LayerNormRows(tp.Add(cx, tp.Relu(tp.MatMul(cw, tp.MatMul(att, cx)))))
	}
	forward()
	if allocs := testing.AllocsPerRun(20, forward); allocs != 0 {
		t.Fatalf("warm forward pass on a reset tape: %v allocs, want 0", allocs)
	}
}
