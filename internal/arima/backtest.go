package arima

import (
	"errors"
	"fmt"

	"rentplan/internal/stats"
)

// BacktestConfig controls rolling-origin forecast evaluation: the paper
// "performed various experiments ... each with different time scale of
// prediction (both short-term and long-term)"; this harness systematises
// that study.
type BacktestConfig struct {
	// Spec is the model estimated at every origin.
	Spec Spec
	// Window is the estimation window length (observations). ≤0 uses an
	// expanding window from the series start.
	Window int
	// Horizon is the number of steps forecast from each origin.
	Horizon int
	// Stride advances the origin between evaluations; ≤0 selects Horizon
	// (non-overlapping forecasts).
	Stride int
	// MinOrigin is the first forecast origin; ≤0 selects max(Window, 64).
	MinOrigin int
}

// BacktestResult aggregates rolling-origin accuracy.
type BacktestResult struct {
	// Origins lists the evaluated forecast origins.
	Origins []int
	// ModelMSPE and MeanMSPE hold the per-origin mean squared prediction
	// errors of the fitted model and of the naive mean forecast.
	ModelMSPE, MeanMSPE []float64
	// Failures counts origins where estimation failed (skipped).
	Failures int
}

// AvgModelMSPE returns the mean of ModelMSPE.
func (r *BacktestResult) AvgModelMSPE() float64 { return stats.Mean(r.ModelMSPE) }

// AvgMeanMSPE returns the mean of MeanMSPE.
func (r *BacktestResult) AvgMeanMSPE() float64 { return stats.Mean(r.MeanMSPE) }

// Improvement returns 1 − AvgModelMSPE/AvgMeanMSPE: the fraction of the
// naive forecast's error removed by the model (can be negative).
func (r *BacktestResult) Improvement() float64 {
	m := r.AvgMeanMSPE()
	if m == 0 { //lint:ignore rentlint/floatcmp division guard: only an exactly-zero MSPE makes the ratio undefined
		return 0
	}
	return 1 - r.AvgModelMSPE()/m
}

// WinRate returns the fraction of origins where the model strictly beats
// the mean forecast.
func (r *BacktestResult) WinRate() float64 {
	if len(r.Origins) == 0 {
		return 0
	}
	wins := 0
	for i := range r.Origins {
		if r.ModelMSPE[i] < r.MeanMSPE[i] {
			wins++
		}
	}
	return float64(wins) / float64(len(r.Origins))
}

// Backtest runs rolling-origin evaluation of the spec on xs.
func Backtest(xs []float64, cfg BacktestConfig) (*BacktestResult, error) {
	res, errs := BacktestAll(xs, cfg, []int{cfg.Horizon}, []int{cfg.Stride})
	return res[0], errs[0]
}

// BacktestAll backtests several (horizon, stride) pairs in one
// rolling-origin walk that shares walk's Spec, Window and MinOrigin (its
// Horizon and Stride are ignored). Pair i is horizons[i] with strides[i];
// the two slices must be equally long. For each pair it returns what
// Backtest would for walk with that Horizon and Stride. Each distinct origin
// is fitted once, and forecasts once at the longest horizon due there; a
// shorter horizon scores the prefix of that forecast, which is bit-identical
// to forecasting it directly.
func BacktestAll(xs []float64, walk BacktestConfig, horizons, strides []int) ([]*BacktestResult, []error) {
	if len(strides) != len(horizons) {
		panic(fmt.Sprintf("arima: BacktestAll got %d horizons but %d strides", len(horizons), len(strides)))
	}
	res := make([]*BacktestResult, len(horizons))
	errs := make([]error, len(horizons))
	spec, window, first := walk.Spec, walk.Window, walk.MinOrigin
	if first <= 0 {
		first = max(window, 64)
	}
	// next[i] is the next origin pair i evaluates, or −1 once it has none
	// left (or was rejected).
	next := make([]int, len(horizons))
	for i, h := range horizons {
		next[i] = -1
		switch {
		case h <= 0:
			errs[i] = errors.New("arima: backtest needs a positive horizon")
		case first+h > len(xs):
			errs[i] = fmt.Errorf("arima: series too short for backtesting (%d points, first origin %d, horizon %d)",
				len(xs), first, h)
		default:
			res[i] = &BacktestResult{}
			next[i] = first
		}
	}
	for {
		// The earliest pending origin, and the longest horizon due there.
		origin, h := -1, 0
		for _, o := range next {
			if o >= 0 && (origin < 0 || o < origin) {
				origin = o
			}
		}
		if origin < 0 {
			break
		}
		for i, o := range next {
			if o == origin {
				h = max(h, horizons[i])
			}
		}
		lo := 0
		if window > 0 && origin-window > 0 {
			lo = origin - window
		}
		hist := xs[lo:origin]
		var fc *Forecast
		m, err := Fit(hist, spec)
		if err == nil {
			fc, err = m.Forecast(h)
		}
		var naive []float64
		if err == nil {
			naive = MeanForecast(hist, h)
		}
		for i, o := range next {
			if o != origin {
				continue
			}
			hi, r := horizons[i], res[i]
			if err != nil {
				r.Failures++
			} else {
				actual := xs[origin : origin+hi]
				r.Origins = append(r.Origins, origin)
				r.ModelMSPE = append(r.ModelMSPE, MSPE(fc.Mean[:hi], actual))
				r.MeanMSPE = append(r.MeanMSPE, MSPE(naive[:hi], actual))
			}
			stride := strides[i]
			if stride <= 0 {
				stride = hi
			}
			if next[i] = origin + stride; next[i]+hi > len(xs) {
				next[i] = -1
			}
		}
	}
	for i, r := range res {
		if r != nil && len(r.Origins) == 0 {
			res[i], errs[i] = nil, errors.New("arima: no backtest origin succeeded")
		}
	}
	return res, errs
}

// HorizonStudy backtests the spec at several horizons and reports the
// improvement over the mean forecast per horizon — the short-term vs
// long-term predictability comparison of Sec. IV-A. Improvements typically
// shrink toward zero as the horizon grows.
func HorizonStudy(xs []float64, spec Spec, window int, horizons []int) (map[int]*BacktestResult, error) {
	if len(horizons) == 0 {
		return nil, errors.New("arima: no horizons")
	}
	res, errs := BacktestAll(xs, BacktestConfig{Spec: spec, Window: window}, horizons, make([]int, len(horizons)))
	out := make(map[int]*BacktestResult, len(horizons))
	for i, h := range horizons {
		if errs[i] != nil {
			return nil, fmt.Errorf("arima: horizon %d: %w", h, errs[i])
		}
		out[h] = res[i]
	}
	return out, nil
}
