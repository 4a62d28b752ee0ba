package arima

import "math"

// cssKernel is the conditional-sum-of-squares engine of one model: the
// workspace that every objective evaluation of a Fit reuses, so evaluating
// the CSS allocates nothing. Fit, Residuals and Forecast all run their
// recursion through it.
//
// The arithmetic is fixed, and is part of the package's output contract:
// the lag polynomials are expanded term by term in the same order, the
// Schur–Cohn step-down visits the same coefficients, and every residual
// subtracts its AR lags in ascending order and then its MA lags in
// ascending order.
type cssKernel struct {
	w      []float64 // differenced series
	period int
	// a and b are the expanded AR and MA lag polynomials, written as
	// w_t − μ = Σ a_i (w_{t−i} − μ) + e_t + Σ b_j e_{t−j}.
	a, b []float64
	c    []float64 // centred series w − μ, refilled by every css run
	// e holds the residuals, or is nil: a model with at most one MA lag
	// carries the lag-1 residual in a register and, unless asked to keep
	// them, stores none.
	e []float64
	// sc0 and sc1 are the ping-pong rows of the Schur–Cohn step-down.
	sc0, sc1 []float64
}

// newCSSKernel sizes the workspace for spec over the differenced series w.
// With keep set, every css run leaves all residuals in k.e.
func newCSSKernel(w []float64, spec Spec, keep bool) *cssKernel {
	p := spec.P + spec.Period*spec.SP
	q := spec.Q + spec.Period*spec.SQ
	k := &cssKernel{
		w:      w,
		period: spec.Period,
		a:      make([]float64, p),
		b:      make([]float64, q),
		c:      make([]float64, len(w)),
		sc0:    make([]float64, max(p, q)),
		sc1:    make([]float64, max(p, q)),
	}
	if keep || q > 1 {
		k.e = make([]float64, len(w))
	}
	return k
}

// expand writes the lag coefficients of φ(L)·Φ(L^s) into out, with the
// leading 1 dropped and signs such that out_i multiplies w_{t−i}. With neg
// set, every input coefficient enters negated.
func expand(out, nonseasonal, seasonal []float64, period int, neg bool) {
	// Polynomial form: (1 − Σ c_i L^i)(1 − Σ C_j L^{js}); product expanded.
	sign := 1.0
	if neg {
		sign = -1
	}
	clear(out)
	for i, c := range nonseasonal {
		out[i] += sign * c
	}
	for j, cs := range seasonal {
		cs *= sign
		lag := (j + 1) * period
		out[lag-1] += cs
		for i, c := range nonseasonal {
			out[lag+i] -= cs * (sign * c) // cross terms: −(−C)(−c) = −Cc
		}
	}
}

// setCoefs expands the model's lag polynomials. The MA product
// (1 + Σθ_i L^i)(1 + ΣΘ_j L^{js}) is the AR expansion of the negated
// coefficients, negated back, which makes its cross terms positive.
func (k *cssKernel) setCoefs(ar, ma, sar, sma []float64) {
	expand(k.a, ar, sar, k.period, false)
	expand(k.b, ma, sma, k.period, true)
	for j := range k.b {
		k.b[j] = -k.b[j]
	}
}

// admissible reports whether the AR polynomial is stationary and the MA
// polynomial invertible.
func (k *cssKernel) admissible() bool {
	if !k.schurCohn(k.a, false) {
		return false
	}
	return k.schurCohn(k.b, true)
}

// schurCohn applies the Schur–Cohn test: the monic polynomial 1 − Σ a_i z^i
// has all roots outside the unit circle iff all reflection coefficients
// computed by the step-down recursion lie in (−1, 1). With neg set it tests
// the polynomial of −a.
func (k *cssKernel) schurCohn(a []float64, neg bool) bool {
	p := len(a)
	if p == 0 {
		return true
	}
	cur, next := k.sc0[:p], k.sc1[:p]
	for i, v := range a {
		if neg {
			v = -v
		}
		cur[i] = v
	}
	for n := p; n >= 1; n-- {
		r := cur[n-1]
		if math.Abs(r) >= 1-1e-9 {
			return false
		}
		if n == 1 {
			break
		}
		den := 1 - r*r
		for i := 0; i < n-1; i++ {
			next[i] = (cur[i] + r*cur[n-2-i]) / den
		}
		cur, next = next, cur
	}
	return true
}

// objective is the CSS of the packed parameter vector [AR, MA, SAR, SMA,
// (mean)], or +Inf outside the stationary and invertible region.
func (k *cssKernel) objective(spec Spec, x []float64) float64 {
	ar, ma, sar, sma, mu := unpack(spec, x)
	k.setCoefs(ar, ma, sar, sma)
	if !k.admissible() {
		return math.Inf(1)
	}
	return k.css(mu)
}

// css runs the ARMA recursion e_t = w_t − μ − Σa_i(w_{t−i}−μ) − Σb_j e_{t−j}
// with zero pre-sample residuals, starting after the longest AR lag, and
// returns the sum of squared residuals. When k.e is set it receives every
// residual; its AR warm-up entries are never written and stay zero.
func (k *cssKernel) css(mu float64) float64 {
	w, a, b, e := k.w, k.a, k.b, k.e
	n, p, q := len(w), len(a), len(b)
	c := k.c[:n]
	// The AR warm-up is centred here, the rest as the recursion reaches it.
	for t := range min(p, n) {
		c[t] = w[t] - mu
	}
	css := 0.0
	prev := 0.0 // e_{t−1}
	t := p
	// Warm-up: only residuals from t = p on enter the MA sum.
	for ; t < n && t < p+q; t++ {
		v := arStep(c, w, a, mu, t)
		if t > p {
			v -= b[0] * prev
			for j := 1; j < t-p; j++ {
				v -= b[j] * e[t-1-j]
			}
		}
		if e != nil {
			e[t] = v
		}
		prev = v
		css += v * v
	}
	switch {
	case e == nil && q == 0:
		for ; t < n; t++ {
			v := arStep(c, w, a, mu, t)
			css += v * v
		}
	case e == nil:
		// One MA lag: e_{t−1} never leaves a register.
		b0 := b[0]
		for ; t < n; t++ {
			v := arStep(c, w, a, mu, t)
			v -= b0 * prev
			prev = v
			css += v * v
		}
	default:
		for ; t < n; t++ {
			v := arStep(c, w, a, mu, t)
			if q > 0 {
				v -= b[0] * prev
				for j := 1; j < q; j++ {
					v -= b[j] * e[t-1-j]
				}
			}
			e[t] = v
			prev = v
			css += v * v
		}
	}
	return css
}

// arStep centres w_t into c_t and returns c_t − Σ a_i c_{t−1−i},
// subtracting the lags in ascending order.
func arStep(c, w, a []float64, mu float64, t int) float64 {
	v := w[t] - mu
	c[t] = v
	for i, ai := range a {
		v -= ai * c[t-1-i]
	}
	return v
}

// unpack splits the packed parameter vector [AR, MA, SAR, SMA, (mean)].
func unpack(spec Spec, x []float64) (ar, ma, sar, sma []float64, mu float64) {
	i := 0
	ar = x[i : i+spec.P]
	i += spec.P
	ma = x[i : i+spec.Q]
	i += spec.Q
	sar = x[i : i+spec.SP]
	i += spec.SP
	sma = x[i : i+spec.SQ]
	i += spec.SQ
	if spec.WithMean {
		mu = x[i]
	}
	return
}
