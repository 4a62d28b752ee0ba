package arima

import (
	"errors"
	"math"

	"rentplan/internal/stats"
)

// Forecast holds h-step-ahead point forecasts and a symmetric 95%
// prediction interval.
type Forecast struct {
	Mean  []float64
	Lower []float64
	Upper []float64
}

// Forecast produces h-step-ahead forecasts from the end of the fitted
// series.
func (m *Model) Forecast(h int) (*Forecast, error) {
	if h <= 0 {
		return nil, errors.New("arima: horizon must be positive")
	}
	spec := m.Spec
	k := m.residualKernel()
	w, a, b, e := k.w, k.a, k.b, k.e

	// Forward recursion on the differenced scale with future shocks at 0.
	n := len(w)
	wAll := append(append([]float64(nil), w...), make([]float64, h)...)
	eAll := append(append([]float64(nil), e...), make([]float64, h)...)
	for k := 0; k < h; k++ {
		t := n + k
		v := m.Mean
		for i := 0; i < len(a); i++ {
			if t-1-i >= 0 {
				v += a[i] * (wAll[t-1-i] - m.Mean)
			}
		}
		for j := 0; j < len(b); j++ {
			if t-1-j >= 0 {
				v += b[j] * eAll[t-1-j]
			}
		}
		wAll[t] = v
	}
	wf := wAll[n:]

	// Integrate the differencing back. Differencing was applied as
	// regular d first, then seasonal D; invert in reverse order.
	vf := wf
	if spec.SD > 0 {
		base := diffOnly(m.series, spec.D) // the series the seasonal diff saw
		vf = integrateSeasonal(base, vf, spec.Period, spec.SD)
	}
	if spec.D > 0 {
		vf = integrateRegular(m.series, vf, spec.D)
	}

	// Prediction intervals via ψ-weights of the composite operator
	// φ(L)Φ(L^s)(1−L)^d(1−L^s)^D.
	arFull := compositeAR(a, spec)
	psi := psiWeights(arFull, b, h)
	f := &Forecast{
		Mean:  vf,
		Lower: make([]float64, h),
		Upper: make([]float64, h),
	}
	varSum := 0.0
	for k := 0; k < h; k++ {
		varSum += psi[k] * psi[k]
		sd := math.Sqrt(m.Sigma2 * varSum)
		f.Lower[k] = vf[k] - 1.96*sd
		f.Upper[k] = vf[k] + 1.96*sd
	}
	return f, nil
}

// diffOnly applies only the regular differencing of the spec.
func diffOnly(xs []float64, d int) []float64 {
	out := append([]float64(nil), xs...)
	for k := 0; k < d; k++ {
		next := make([]float64, len(out)-1)
		for i := 1; i < len(out); i++ {
			next[i-1] = out[i] - out[i-1]
		}
		out = next
	}
	return out
}

// integrateSeasonal undoes D rounds of seasonal differencing for the
// forecast segment, given the pre-differencing history base.
func integrateSeasonal(base []float64, wf []float64, period, D int) []float64 {
	cur := wf
	// Build the stack of partially differenced histories.
	hist := make([][]float64, D+1)
	hist[0] = base
	for k := 1; k <= D; k++ {
		prev := hist[k-1]
		next := make([]float64, len(prev)-period)
		for i := period; i < len(prev); i++ {
			next[i-period] = prev[i] - prev[i-period]
		}
		hist[k] = next
	}
	for k := D; k >= 1; k-- {
		lower := hist[k-1] // series before the k-th seasonal differencing
		out := make([]float64, len(cur))
		for i := range cur {
			var prior float64
			idx := len(lower) + i - period
			if idx < len(lower) {
				prior = lower[idx]
			} else {
				prior = out[idx-len(lower)]
			}
			out[i] = cur[i] + prior
		}
		cur = out
	}
	return cur
}

// integrateRegular undoes d rounds of regular differencing for the forecast
// segment given the original history.
func integrateRegular(base []float64, wf []float64, d int) []float64 {
	cur := wf
	hist := make([][]float64, d+1)
	hist[0] = base
	for k := 1; k <= d; k++ {
		hist[k] = diffOnly(hist[k-1], 1)
	}
	for k := d; k >= 1; k-- {
		lower := hist[k-1]
		out := make([]float64, len(cur))
		run := lower[len(lower)-1]
		for i := range cur {
			run += cur[i]
			out[i] = run
		}
		cur = out
	}
	return cur
}

// compositeAR multiplies the stationary AR polynomial (1 − Σa L) by
// (1−L)^d (1−L^s)^D and returns the lag coefficients of the result in
// "w_t = Σ ā_i w_{t−i}" form.
func compositeAR(a []float64, spec Spec) []float64 {
	// Polynomial coefficient vector starting at L^0, value form 1 − Σ a L.
	poly := make([]float64, len(a)+1)
	poly[0] = 1
	for i, c := range a {
		poly[i+1] = -c
	}
	for k := 0; k < spec.D; k++ {
		poly = multPoly(poly, []float64{1, -1})
	}
	if spec.SD > 0 {
		seas := make([]float64, spec.Period+1)
		seas[0], seas[spec.Period] = 1, -1
		for k := 0; k < spec.SD; k++ {
			poly = multPoly(poly, seas)
		}
	}
	out := make([]float64, len(poly)-1)
	for i := 1; i < len(poly); i++ {
		out[i-1] = -poly[i]
	}
	return out
}

func multPoly(p, q []float64) []float64 {
	out := make([]float64, len(p)+len(q)-1)
	for i, a := range p {
		for j, b := range q {
			out[i+j] += a * b
		}
	}
	return out
}

// psiWeights returns the first h MA(∞) weights of the ARMA model
// w_t = Σ ā w_{t−i} + e_t + Σ b e_{t−j} (ψ_0 = 1).
func psiWeights(a, b []float64, h int) []float64 {
	psi := make([]float64, h)
	if h == 0 {
		return psi
	}
	psi[0] = 1
	for j := 1; j < h; j++ {
		v := 0.0
		if j-1 < len(b) {
			v += b[j-1]
		}
		for i := 1; i <= len(a) && i <= j; i++ {
			v += a[i-1] * psi[j-i]
		}
		psi[j] = v
	}
	return psi
}

// MSPE returns the mean squared prediction error between forecasts and
// realised values (shorter slice length governs).
func MSPE(pred, actual []float64) float64 {
	n := len(pred)
	if len(actual) < n {
		n = len(actual)
	}
	if n == 0 {
		return math.NaN()
	}
	s := 0.0
	for i := 0; i < n; i++ {
		d := pred[i] - actual[i]
		s += d * d
	}
	return s / float64(n)
}

// MeanForecast is the naive baseline the paper compares against: every
// future value is predicted as the historical mean of xs.
func MeanForecast(xs []float64, h int) []float64 {
	m := stats.Mean(xs)
	out := make([]float64, h)
	for i := range out {
		out[i] = m
	}
	return out
}
