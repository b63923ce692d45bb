// Package autodiff implements a small reverse-mode automatic
// differentiation engine over dense matrices. It exists because this
// repository is stdlib-only: the paper's translators (stacks of
// self-attention and feed-forward layers), R-GCN, and SimplE all need
// gradients, and there is no mature Go autodiff to lean on.
//
// Usage: create a Tape, lift parameters and constants into Tensors with
// Param/Constant, compose ops (MatMul, Relu, SoftmaxRows, ...), reduce to
// a scalar loss, then call Backward. Gradients accumulate into the Grad
// field of every Tensor with RequiresGrad set. A training loop that runs
// the same graph many times calls Reset between passes: the tape then
// hands the previous pass's matrices out again instead of allocating.
package autodiff

import (
	"fmt"
	"math"

	"transn/internal/mat"
)

// Tensor is a node in the computation graph. Value holds the forward
// result; Grad accumulates ∂loss/∂Value during Backward.
type Tensor struct {
	Value        *mat.Dense
	Grad         *mat.Dense
	RequiresGrad bool

	back func() // propagates t.Grad into the gradients of its inputs
}

// Tape records the computation graph in creation order so Backward can
// replay it in reverse. It owns every Tensor and matrix its ops hand
// out: op values, gradients (Param gradients included), backward
// temporaries and op state such as LayerNormRows' inverse standard
// deviations. Only the matrices passed to Param and Constant stay the
// caller's.
//
// A tape serves one forward/backward pass at a time. Reset starts the
// next pass and recycles everything the tape handed out, in the order it
// was handed out, so a tape that rebuilds a graph of the same shapes
// allocates nothing for its matrices and Tensors after the first pass.
// Every Tensor, Value and Grad obtained from the tape is invalid after
// Reset; Clone whatever must outlive the pass. Reuse changes no
// arithmetic: a recycled matrix is zeroed exactly as a new one, so a
// graph yields the same bits on a reset tape as on a fresh one.
type Tape struct {
	nodes   []*Tensor
	tensors pool[Tensor]
	mats    pool[mat.Dense]
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// Reset ends the current pass: it drops the recorded graph and recycles
// every Tensor and matrix the tape handed out (see Tape).
func (tp *Tape) Reset() {
	tp.nodes = tp.nodes[:0]
	tp.tensors.reset()
	tp.mats.reset()
}

// Len returns the number of recorded nodes.
func (tp *Tape) Len() int { return len(tp.nodes) }

func (tp *Tape) record(t Tensor) *Tensor {
	p := tp.tensors.next()
	*p = t
	tp.nodes = append(tp.nodes, p)
	return p
}

// newMat returns a zeroed r×c matrix owned by the tape, recycling the
// storage of the matrix handed out at the same position in an earlier
// pass when it is large enough.
func (tp *Tape) newMat(r, c int) *mat.Dense {
	m := tp.mats.next()
	if n := r * c; cap(m.Data) < n {
		m.Data = make([]float64, n)
	} else {
		m.Data = m.Data[:n]
		clear(m.Data)
	}
	m.R, m.C = r, c
	return m
}

// like returns a zeroed tape-owned matrix shaped like m.
func (tp *Tape) like(m *mat.Dense) *mat.Dense { return tp.newMat(m.R, m.C) }

// pool hands out *T from blocks that double in size and are never
// reallocated, so handed-out pointers stay valid. reset rewinds it: the
// same items come out again in the same order.
type pool[T any] struct {
	blocks   [][]T
	blk, off int
}

func (p *pool[T]) next() *T {
	if p.blk < len(p.blocks) && p.off == len(p.blocks[p.blk]) {
		p.blk, p.off = p.blk+1, 0
	}
	if p.blk == len(p.blocks) {
		size := 8
		if n := len(p.blocks); n > 0 {
			size = 2 * len(p.blocks[n-1])
		}
		p.blocks = append(p.blocks, make([]T, size))
	}
	t := &p.blocks[p.blk][p.off]
	p.off++
	return t
}

func (p *pool[T]) reset() { p.blk, p.off = 0, 0 }

// Param lifts v into the graph as a trainable leaf. The returned tensor
// aliases v, so optimizer updates through Value are seen by later passes.
func (tp *Tape) Param(v *mat.Dense) *Tensor {
	return tp.record(Tensor{
		Value:        v,
		Grad:         tp.like(v),
		RequiresGrad: true,
	})
}

// Constant lifts v into the graph as a non-trainable leaf.
func (tp *Tape) Constant(v *mat.Dense) *Tensor {
	return tp.record(Tensor{Value: v})
}

// Backward runs reverse-mode accumulation from loss, which must be a 1x1
// tensor produced by this tape. The seed gradient is 1.
func (tp *Tape) Backward(loss *Tensor) {
	if loss.Value.R != 1 || loss.Value.C != 1 {
		panic(fmt.Sprintf("autodiff: Backward requires scalar loss, got %dx%d", loss.Value.R, loss.Value.C))
	}
	// Zero all intermediate grads, then seed.
	for _, n := range tp.nodes {
		if n.Grad != nil {
			n.Grad.Zero()
		}
	}
	if loss.Grad == nil {
		loss.Grad = tp.newMat(1, 1)
	}
	loss.Grad.Set(0, 0, 1)
	// Nodes are recorded in topological (creation) order; reverse it.
	for i := len(tp.nodes) - 1; i >= 0; i-- {
		n := tp.nodes[i]
		if n.back != nil && n.Grad != nil {
			n.back()
		}
	}
}

// needGrad reports whether any input requires gradients.
func needGrad(ts ...*Tensor) bool {
	for _, t := range ts {
		if t.RequiresGrad {
			return true
		}
	}
	return false
}

// newResult records an op output, wiring RequiresGrad and Grad storage.
func (tp *Tape) newResult(v *mat.Dense, requires bool) *Tensor {
	t := Tensor{Value: v, RequiresGrad: requires}
	if requires {
		t.Grad = tp.like(v)
	}
	return tp.record(t)
}

// ensureGrad lazily allocates grad storage for a leaf that participates in
// a differentiable op (covers constants feeding grad-requiring paths).
func (tp *Tape) ensureGrad(t *Tensor) {
	if t.RequiresGrad && t.Grad == nil {
		t.Grad = tp.like(t.Value)
	}
}

// MatMul returns a·b.
func (tp *Tape) MatMul(a, b *Tensor) *Tensor {
	v := mat.MatMul(tp.newMat(a.Value.R, b.Value.C), a.Value, b.Value)
	out := tp.newResult(v, needGrad(a, b))
	if out.RequiresGrad {
		tp.ensureGrad(a)
		tp.ensureGrad(b)
		out.back = func() {
			if a.RequiresGrad {
				// dA += dOut · Bᵀ
				mat.AddScaled(a.Grad, 1, mat.MatMulT(tp.like(a.Value), out.Grad, b.Value))
			}
			if b.RequiresGrad {
				// dB += Aᵀ · dOut
				mat.AddScaled(b.Grad, 1, mat.TMatMul(tp.like(b.Value), a.Value, out.Grad))
			}
		}
	}
	return out
}

// MatMulT returns a·bᵀ.
func (tp *Tape) MatMulT(a, b *Tensor) *Tensor {
	v := mat.MatMulT(tp.newMat(a.Value.R, b.Value.R), a.Value, b.Value)
	out := tp.newResult(v, needGrad(a, b))
	if out.RequiresGrad {
		tp.ensureGrad(a)
		tp.ensureGrad(b)
		out.back = func() {
			if a.RequiresGrad {
				// out = A·Bᵀ ⇒ dA += dOut · B
				mat.AddScaled(a.Grad, 1, mat.MatMul(tp.like(a.Value), out.Grad, b.Value))
			}
			if b.RequiresGrad {
				// dB += dOutᵀ · A
				mat.AddScaled(b.Grad, 1, mat.TMatMul(tp.like(b.Value), out.Grad, a.Value))
			}
		}
	}
	return out
}

// Add returns a+b (same shape).
func (tp *Tape) Add(a, b *Tensor) *Tensor {
	v := mat.Add(tp.like(a.Value), a.Value, b.Value)
	out := tp.newResult(v, needGrad(a, b))
	if out.RequiresGrad {
		tp.ensureGrad(a)
		tp.ensureGrad(b)
		out.back = func() {
			if a.RequiresGrad {
				mat.AddScaled(a.Grad, 1, out.Grad)
			}
			if b.RequiresGrad {
				mat.AddScaled(b.Grad, 1, out.Grad)
			}
		}
	}
	return out
}

// Sub returns a-b (same shape).
func (tp *Tape) Sub(a, b *Tensor) *Tensor {
	v := mat.Sub(tp.like(a.Value), a.Value, b.Value)
	out := tp.newResult(v, needGrad(a, b))
	if out.RequiresGrad {
		tp.ensureGrad(a)
		tp.ensureGrad(b)
		out.back = func() {
			if a.RequiresGrad {
				mat.AddScaled(a.Grad, 1, out.Grad)
			}
			if b.RequiresGrad {
				mat.AddScaled(b.Grad, -1, out.Grad)
			}
		}
	}
	return out
}

// ElemMul returns the Hadamard product a⊙b.
func (tp *Tape) ElemMul(a, b *Tensor) *Tensor {
	v := mat.ElemMul(tp.like(a.Value), a.Value, b.Value)
	out := tp.newResult(v, needGrad(a, b))
	if out.RequiresGrad {
		tp.ensureGrad(a)
		tp.ensureGrad(b)
		out.back = func() {
			if a.RequiresGrad {
				mat.AddScaled(a.Grad, 1, mat.ElemMul(tp.like(a.Value), out.Grad, b.Value))
			}
			if b.RequiresGrad {
				mat.AddScaled(b.Grad, 1, mat.ElemMul(tp.like(b.Value), out.Grad, a.Value))
			}
		}
	}
	return out
}

// Scale returns s*a.
func (tp *Tape) Scale(s float64, a *Tensor) *Tensor {
	v := mat.Scale(tp.like(a.Value), s, a.Value)
	out := tp.newResult(v, a.RequiresGrad)
	if out.RequiresGrad {
		tp.ensureGrad(a)
		out.back = func() { mat.AddScaled(a.Grad, s, out.Grad) }
	}
	return out
}

// AddColBroadcast returns a + b·1ᵀ where b is an R×1 column vector added to
// every column of a. This matches the paper's feed-forward bias b^{|λ|×1}.
func (tp *Tape) AddColBroadcast(a, b *Tensor) *Tensor {
	if b.Value.C != 1 || b.Value.R != a.Value.R {
		panic(fmt.Sprintf("autodiff: AddColBroadcast wants %dx1 bias, got %dx%d", a.Value.R, b.Value.R, b.Value.C))
	}
	v := tp.like(a.Value)
	copy(v.Data, a.Value.Data)
	for i := 0; i < v.R; i++ {
		bi := b.Value.At(i, 0)
		row := v.Row(i)
		for j := range row {
			row[j] += bi
		}
	}
	out := tp.newResult(v, needGrad(a, b))
	if out.RequiresGrad {
		tp.ensureGrad(a)
		tp.ensureGrad(b)
		out.back = func() {
			if a.RequiresGrad {
				mat.AddScaled(a.Grad, 1, out.Grad)
			}
			if b.RequiresGrad {
				for i := 0; i < out.Grad.R; i++ {
					var s float64
					for _, g := range out.Grad.Row(i) {
						s += g
					}
					b.Grad.Set(i, 0, b.Grad.At(i, 0)+s)
				}
			}
		}
	}
	return out
}

// AddRowBroadcast returns a + 1·bᵀ where b is a 1×C row vector added to
// every row of a.
func (tp *Tape) AddRowBroadcast(a, b *Tensor) *Tensor {
	if b.Value.R != 1 || b.Value.C != a.Value.C {
		panic(fmt.Sprintf("autodiff: AddRowBroadcast wants 1x%d bias, got %dx%d", a.Value.C, b.Value.R, b.Value.C))
	}
	v := tp.like(a.Value)
	copy(v.Data, a.Value.Data)
	brow := b.Value.Row(0)
	for i := 0; i < v.R; i++ {
		row := v.Row(i)
		for j := range row {
			row[j] += brow[j]
		}
	}
	out := tp.newResult(v, needGrad(a, b))
	if out.RequiresGrad {
		tp.ensureGrad(a)
		tp.ensureGrad(b)
		out.back = func() {
			if a.RequiresGrad {
				mat.AddScaled(a.Grad, 1, out.Grad)
			}
			if b.RequiresGrad {
				bg := b.Grad.Row(0)
				for i := 0; i < out.Grad.R; i++ {
					row := out.Grad.Row(i)
					for j := range row {
						bg[j] += row[j]
					}
				}
			}
		}
	}
	return out
}

// Relu returns max(0, a) elementwise.
func (tp *Tape) Relu(a *Tensor) *Tensor {
	v := mat.Relu(tp.like(a.Value), a.Value)
	out := tp.newResult(v, a.RequiresGrad)
	if out.RequiresGrad {
		tp.ensureGrad(a)
		out.back = func() {
			for i, av := range a.Value.Data {
				if av > 0 {
					a.Grad.Data[i] += out.Grad.Data[i]
				}
			}
		}
	}
	return out
}

// Sigmoid returns 1/(1+exp(-a)) elementwise.
func (tp *Tape) Sigmoid(a *Tensor) *Tensor {
	v := tp.like(a.Value)
	for i, x := range a.Value.Data {
		v.Data[i] = sigmoid(x)
	}
	out := tp.newResult(v, a.RequiresGrad)
	if out.RequiresGrad {
		tp.ensureGrad(a)
		out.back = func() {
			for i, s := range out.Value.Data {
				a.Grad.Data[i] += out.Grad.Data[i] * s * (1 - s)
			}
		}
	}
	return out
}

// Tanh returns tanh(a) elementwise.
func (tp *Tape) Tanh(a *Tensor) *Tensor {
	v := tp.like(a.Value)
	for i, x := range a.Value.Data {
		v.Data[i] = math.Tanh(x)
	}
	out := tp.newResult(v, a.RequiresGrad)
	if out.RequiresGrad {
		tp.ensureGrad(a)
		out.back = func() {
			for i, th := range out.Value.Data {
				a.Grad.Data[i] += out.Grad.Data[i] * (1 - th*th)
			}
		}
	}
	return out
}

// SoftmaxRows applies softmax independently to each row of a.
func (tp *Tape) SoftmaxRows(a *Tensor) *Tensor {
	v := mat.SoftmaxRows(tp.like(a.Value), a.Value)
	out := tp.newResult(v, a.RequiresGrad)
	if out.RequiresGrad {
		tp.ensureGrad(a)
		out.back = func() {
			// For each row: dx_j = s_j * (g_j - Σ_k g_k s_k).
			for i := 0; i < v.R; i++ {
				srow := v.Row(i)
				grow := out.Grad.Row(i)
				var dot float64
				for k := range srow {
					dot += grow[k] * srow[k]
				}
				arow := a.Grad.Row(i)
				for j := range srow {
					arow[j] += srow[j] * (grow[j] - dot)
				}
			}
		}
	}
	return out
}

// SumAll reduces a to a 1x1 tensor containing the sum of all elements.
func (tp *Tape) SumAll(a *Tensor) *Tensor {
	v := tp.newMat(1, 1)
	v.Set(0, 0, a.Value.Sum())
	out := tp.newResult(v, a.RequiresGrad)
	if out.RequiresGrad {
		tp.ensureGrad(a)
		out.back = func() {
			g := out.Grad.At(0, 0)
			for i := range a.Grad.Data {
				a.Grad.Data[i] += g
			}
		}
	}
	return out
}

// MeanAll reduces a to a 1x1 tensor containing the mean of all elements.
func (tp *Tape) MeanAll(a *Tensor) *Tensor {
	n := float64(len(a.Value.Data))
	return tp.Scale(1/n, tp.SumAll(a))
}

// MSE returns the mean squared error between a and b as a 1x1 tensor:
// mean((a-b)²).
func (tp *Tape) MSE(a, b *Tensor) *Tensor {
	d := tp.Sub(a, b)
	return tp.MeanAll(tp.ElemMul(d, d))
}

// Square returns a⊙a.
func (tp *Tape) Square(a *Tensor) *Tensor { return tp.ElemMul(a, a) }

func sigmoid(x float64) float64 {
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}
