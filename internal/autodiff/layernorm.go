package autodiff

import "math"

// LayerNormRows normalizes each row of x to zero mean and unit variance
// (no learnable affine): y = (x − μ)/√(σ² + ε). It is the stabilizer
// that makes residual encoder stacks trainable.
func (tp *Tape) LayerNormRows(x *Tensor) *Tensor {
	const eps = 1e-5
	r, c := x.Value.R, x.Value.C
	v := tp.newMat(r, c)
	invStd := tp.newMat(r, 1).Data
	for i := 0; i < r; i++ {
		row := x.Value.Row(i)
		var mean float64
		for _, e := range row {
			mean += e
		}
		mean /= float64(c)
		var varr float64
		for _, e := range row {
			d := e - mean
			varr += d * d
		}
		varr /= float64(c)
		is := 1 / math.Sqrt(varr+eps)
		invStd[i] = is
		out := v.Row(i)
		for j, e := range row {
			out[j] = (e - mean) * is
		}
	}
	out := tp.newResult(v, x.RequiresGrad)
	if out.RequiresGrad {
		tp.ensureGrad(x)
		out.back = func() {
			// dL/dx = invStd · (g − mean(g) − y·mean(g⊙y)) per row.
			for i := 0; i < r; i++ {
				g := out.Grad.Row(i)
				y := out.Value.Row(i)
				var meanG, meanGY float64
				for j := 0; j < c; j++ {
					meanG += g[j]
					meanGY += g[j] * y[j]
				}
				meanG /= float64(c)
				meanGY /= float64(c)
				dst := x.Grad.Row(i)
				is := invStd[i]
				for j := 0; j < c; j++ {
					dst[j] += is * (g[j] - meanG - y[j]*meanGY)
				}
			}
		}
	}
	return out
}
