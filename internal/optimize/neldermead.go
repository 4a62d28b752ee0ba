// Package optimize provides a derivative-free Nelder–Mead simplex minimiser
// used to fit ARMA/SARIMA models by conditional sum of squares.
package optimize

import (
	"errors"
	"math"
	"slices"
)

// Options tunes the Nelder–Mead search. Zero value = defaults.
type Options struct {
	// MaxEvals bounds objective evaluations; ≤0 selects 200·dim².
	MaxEvals int
	// TolF stops when the simplex objective spread falls below it; ≤0
	// selects 1e-10.
	TolF float64
	// TolX stops when the simplex diameter falls below it; ≤0 selects 1e-8.
	TolX float64
	// Step is the initial simplex edge length; ≤0 selects 0.1 (or 0.00025
	// for coordinates that are exactly 0, mirroring common practice).
	Step float64
	// Restarts re-runs the search from the best point with a fresh simplex;
	// <0 selects 1.
	Restarts int
}

func (o Options) withDefaults(dim int) Options {
	if o.MaxEvals <= 0 {
		o.MaxEvals = 200 * dim * dim
		if o.MaxEvals < 2000 {
			o.MaxEvals = 2000
		}
	}
	if o.TolF <= 0 {
		o.TolF = 1e-10
	}
	if o.TolX <= 0 {
		o.TolX = 1e-8
	}
	if o.Step <= 0 {
		o.Step = 0.1
	}
	if o.Restarts < 0 {
		o.Restarts = 1
	}
	return o
}

// Result is the outcome of a minimisation.
type Result struct {
	X     []float64
	F     float64
	Evals int
}

// Minimize runs Nelder–Mead from x0 on f. f may return +Inf to signal an
// infeasible point (e.g. non-stationary ARMA coefficients).
func Minimize(f func([]float64) float64, x0 []float64, opts Options) (Result, error) {
	dim := len(x0)
	if dim == 0 {
		return Result{}, errors.New("optimize: empty start point")
	}
	opts = opts.withDefaults(dim)

	best := append([]float64(nil), x0...)
	bestF := f(best)
	evals := 1

	for r := 0; r <= opts.Restarts; r++ {
		res := minimizeOnce(f, best, opts, &evals)
		if res.F < bestF {
			bestF = res.F
			best = res.X
		}
		if evals >= opts.MaxEvals {
			break
		}
	}
	return Result{X: best, F: bestF, Evals: evals}, nil
}

// vertex is a simplex point and its objective value.
type vertex struct {
	x []float64
	f float64
}

// byF orders vertices by objective value. It reports ties as 0, so the sort
// visits and swaps exactly as a strict less-than would.
func byF(a, b vertex) int {
	switch {
	case a.f < b.f:
		return -1
	case a.f > b.f:
		return 1
	}
	return 0
}

func minimizeOnce(f func([]float64) float64, x0 []float64, opts Options, evals *int) Result {
	dim := len(x0)
	const (
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
	)
	eval := func(x []float64) float64 {
		*evals++
		v := f(x)
		if math.IsNaN(v) {
			return math.Inf(1)
		}
		return v
	}
	simplex := make([]vertex, dim+1)
	simplex[0] = vertex{x: append([]float64(nil), x0...)}
	simplex[0].f = eval(simplex[0].x)
	for i := 1; i <= dim; i++ {
		x := append([]float64(nil), x0...)
		if x[i-1] == 0 { //lint:ignore rentlint/floatcmp Nelder–Mead's standard zero-coordinate rule: relative steps are meaningless at exactly zero
			x[i-1] = 0.00025
		} else {
			x[i-1] += opts.Step * math.Max(1, math.Abs(x[i-1]))
		}
		simplex[i] = vertex{x: x, f: eval(x)}
	}

	centroid := make([]float64, dim)
	xr := make([]float64, dim)
	xe := make([]float64, dim)
	xc := make([]float64, dim)

	for *evals < opts.MaxEvals {
		slices.SortFunc(simplex, byF)
		// Convergence: objective spread and simplex diameter.
		fSpread := simplex[dim].f - simplex[0].f
		diam := 0.0
		for i := 1; i <= dim; i++ {
			for j := 0; j < dim; j++ {
				diam = math.Max(diam, math.Abs(simplex[i].x[j]-simplex[0].x[j]))
			}
		}
		if (fSpread < opts.TolF && !math.IsInf(simplex[dim].f, 1)) || diam < opts.TolX {
			break
		}
		// Centroid of all but the worst.
		for j := 0; j < dim; j++ {
			centroid[j] = 0
		}
		for i := 0; i < dim; i++ {
			for j := 0; j < dim; j++ {
				centroid[j] += simplex[i].x[j]
			}
		}
		for j := 0; j < dim; j++ {
			centroid[j] /= float64(dim)
		}
		worst := simplex[dim]
		for j := 0; j < dim; j++ {
			xr[j] = centroid[j] + alpha*(centroid[j]-worst.x[j])
		}
		fr := eval(xr)
		switch {
		case fr < simplex[0].f:
			// Try expansion.
			for j := 0; j < dim; j++ {
				xe[j] = centroid[j] + gamma*(xr[j]-centroid[j])
			}
			fe := eval(xe)
			if fe < fr {
				copy(worst.x, xe)
				worst.f = fe
			} else {
				copy(worst.x, xr)
				worst.f = fr
			}
			simplex[dim] = worst
		case fr < simplex[dim-1].f:
			copy(worst.x, xr)
			worst.f = fr
			simplex[dim] = worst
		default:
			// Contraction (outside if fr better than worst, else inside).
			ref := worst.x
			if fr < worst.f {
				ref = xr
			}
			for j := 0; j < dim; j++ {
				xc[j] = centroid[j] + rho*(ref[j]-centroid[j])
			}
			fc := eval(xc)
			if fc < math.Min(fr, worst.f) {
				copy(worst.x, xc)
				worst.f = fc
				simplex[dim] = worst
			} else {
				// Shrink toward the best vertex.
				for i := 1; i <= dim; i++ {
					for j := 0; j < dim; j++ {
						simplex[i].x[j] = simplex[0].x[j] + sigma*(simplex[i].x[j]-simplex[0].x[j])
					}
					simplex[i].f = eval(simplex[i].x)
				}
			}
		}
	}
	slices.SortFunc(simplex, byF)
	return Result{X: append([]float64(nil), simplex[0].x...), F: simplex[0].f, Evals: *evals}
}
