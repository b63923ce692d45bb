package autodiff

import (
	"fmt"
	"math"

	"transn/internal/mat"
)

// SparseMatMul returns s·x for a constant sparse matrix s. Gradients flow
// to x only: dX += sᵀ·dOut.
func (tp *Tape) SparseMatMul(s *mat.Sparse, x *Tensor) *Tensor {
	v := s.Mul(tp.newMat(s.R, x.Value.C), x.Value)
	out := tp.newResult(v, x.RequiresGrad)
	if out.RequiresGrad {
		tp.ensureGrad(x)
		out.back = func() {
			mat.AddScaled(x.Grad, 1, s.TMul(tp.like(x.Value), out.Grad))
		}
	}
	return out
}

// GatherRows returns the matrix whose i-th row is x's idx[i]-th row.
// The backward pass scatter-adds gradients into the gathered rows.
func (tp *Tape) GatherRows(x *Tensor, idx []int) *Tensor {
	v := tp.newMat(len(idx), x.Value.C)
	for i, r := range idx {
		v.SetRow(i, x.Value.Row(r))
	}
	out := tp.newResult(v, x.RequiresGrad)
	if out.RequiresGrad {
		tp.ensureGrad(x)
		out.back = func() {
			for i, r := range idx {
				dst := x.Grad.Row(r)
				src := out.Grad.Row(i)
				for j := range dst {
					dst[j] += src[j]
				}
			}
		}
	}
	return out
}

// SumRows reduces each row of x to a single column: out is R×1 with
// out[i] = Σ_j x[i][j].
func (tp *Tape) SumRows(x *Tensor) *Tensor {
	v := tp.newMat(x.Value.R, 1)
	for i := 0; i < x.Value.R; i++ {
		var s float64
		for _, e := range x.Value.Row(i) {
			s += e
		}
		v.Set(i, 0, s)
	}
	out := tp.newResult(v, x.RequiresGrad)
	if out.RequiresGrad {
		tp.ensureGrad(x)
		out.back = func() {
			for i := 0; i < x.Grad.R; i++ {
				g := out.Grad.At(i, 0)
				row := x.Grad.Row(i)
				for j := range row {
					row[j] += g
				}
			}
		}
	}
	return out
}

// LogisticLoss returns the mean binary cross-entropy with logits:
// mean(softplus(-y·s)) where scores is R×1 and labels[i] ∈ {+1, −1}.
func (tp *Tape) LogisticLoss(scores *Tensor, labels []float64) *Tensor {
	if scores.Value.C != 1 || scores.Value.R != len(labels) {
		panic(fmt.Sprintf("autodiff: LogisticLoss wants %dx1 scores, got %dx%d",
			len(labels), scores.Value.R, scores.Value.C))
	}
	n := float64(len(labels))
	v := tp.newMat(1, 1)
	var total float64
	for i, y := range labels {
		total += softplus(-y * scores.Value.At(i, 0))
	}
	v.Set(0, 0, total/n)
	out := tp.newResult(v, scores.RequiresGrad)
	if out.RequiresGrad {
		tp.ensureGrad(scores)
		out.back = func() {
			g := out.Grad.At(0, 0) / n
			for i, y := range labels {
				s := scores.Value.At(i, 0)
				// d/ds softplus(-y·s) = -y·σ(-y·s)
				scores.Grad.Set(i, 0, scores.Grad.At(i, 0)-g*y*sigmoid(-y*s))
			}
		}
	}
	return out
}

// softplus computes log(1+exp(x)) stably.
func softplus(x float64) float64 {
	if x > 30 {
		return x
	}
	if x < -30 {
		return math.Exp(x)
	}
	return math.Log1p(math.Exp(x))
}
