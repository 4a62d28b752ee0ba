package arima

import (
	"errors"
	"fmt"
	"math"
)

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

// backtestOracle is the one-horizon rolling-origin loop that BacktestAll
// replaced: it fits and forecasts every origin of its own walk. The only
// change is the length check, which now accepts a series with exactly one
// valid origin, as the loop always did. backtest_test.go requires
// BacktestAll to match it bit for bit.
func backtestOracle(xs []float64, cfg BacktestConfig) (*BacktestResult, error) {
	if cfg.Horizon <= 0 {
		return nil, errors.New("arima: backtest needs a positive horizon")
	}
	stride := cfg.Stride
	if stride <= 0 {
		stride = cfg.Horizon
	}
	origin := cfg.MinOrigin
	if origin <= 0 {
		origin = cfg.Window
		if origin < 64 {
			origin = 64
		}
	}
	if origin+cfg.Horizon > len(xs) {
		return nil, fmt.Errorf("arima: series too short for backtesting (%d points, first origin %d, horizon %d)",
			len(xs), origin, cfg.Horizon)
	}
	res := &BacktestResult{}
	for ; origin+cfg.Horizon <= len(xs); origin += stride {
		lo := 0
		if cfg.Window > 0 && origin-cfg.Window > 0 {
			lo = origin - cfg.Window
		}
		hist := xs[lo:origin]
		actual := xs[origin : origin+cfg.Horizon]
		m, err := Fit(hist, cfg.Spec)
		if err != nil {
			res.Failures++
			continue
		}
		fc, err := m.Forecast(cfg.Horizon)
		if err != nil {
			res.Failures++
			continue
		}
		res.Origins = append(res.Origins, origin)
		res.ModelMSPE = append(res.ModelMSPE, MSPE(fc.Mean, actual))
		res.MeanMSPE = append(res.MeanMSPE, MSPE(MeanForecast(hist, cfg.Horizon), actual))
	}
	if len(res.Origins) == 0 {
		return nil, errors.New("arima: no backtest origin succeeded")
	}
	return res, nil
}
