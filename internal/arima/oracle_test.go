package arima

import "math"

// The reference CSS implementation the kernel in css.go replaced. It
// allocates freely and is kept only as the oracle of the differential tests
// in css_test.go, which require the kernel to match it bit for bit.

// expandPoly returns the coefficients of φ(L)·Φ(L^s) written as
// w_t = Σ a_i w_{t−i} + ..., i.e. the full autoregressive lag polynomial
// with the leading 1 dropped and signs such that a_i multiply past values.
func expandPoly(nonseasonal []float64, seasonal []float64, period int) []float64 {
	// Polynomial form: (1 − Σ c_i L^i)(1 − Σ C_j L^{js}); product expanded.
	n := len(nonseasonal) + period*len(seasonal)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i, c := range nonseasonal {
		out[i] += c
	}
	for j, cs := range seasonal {
		lag := (j + 1) * period
		out[lag-1] += cs
		for i, c := range nonseasonal {
			out[lag+i] -= cs * c // cross terms: −(−C)(−c) = −Cc
		}
	}
	return out
}

// stationary applies the Schur–Cohn test: the monic polynomial
// 1 − Σ a_i z^i has all roots outside the unit circle iff all reflection
// coefficients computed by the step-down recursion lie in (−1, 1).
func stationary(a []float64) bool {
	p := len(a)
	if p == 0 {
		return true
	}
	cur := append([]float64(nil), a...)
	for k := p; k >= 1; k-- {
		r := cur[k-1]
		if math.Abs(r) >= 1-1e-9 {
			return false
		}
		if k == 1 {
			break
		}
		next := make([]float64, k-1)
		den := 1 - r*r
		for i := 0; i < k-1; i++ {
			next[i] = (cur[i] + r*cur[k-2-i]) / den
		}
		cur = next
	}
	return true
}

// cssResiduals runs the ARMA recursion e_t = w_t − μ − Σa_i(w_{t−i}−μ)
// − Σb_j e_{t−j} with zero pre-sample residuals, starting after the longest
// AR lag. It returns the residuals and the implied sum of squares.
func cssResiduals(w []float64, a, b []float64, mu float64) ([]float64, float64) {
	n := len(w)
	p, q := len(a), len(b)
	e := make([]float64, n)
	css := 0.0
	for t := p; t < n; t++ {
		v := w[t] - mu
		for i := 0; i < p; i++ {
			v -= a[i] * (w[t-1-i] - mu)
		}
		for j := 0; j < q && t-1-j >= p; j++ {
			v -= b[j] * e[t-1-j]
		}
		e[t] = v
		css += v * v
	}
	return e, css
}

// expandMA expands (1 + Σθ_i L^i)(1 + ΣΘ_j L^{js}) into 1 + Σ b_k L^k and
// returns b. Note the positive cross terms, unlike the AR expansion.
func expandMA(ma, sma []float64, period int) []float64 {
	return negate(expandPoly(negate(ma), negate(sma), period))
}

func negate(b []float64) []float64 {
	out := make([]float64, len(b))
	for i, v := range b {
		out[i] = -v
	}
	return out
}
