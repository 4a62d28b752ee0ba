package arima

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestBacktestAR1BeatsMeanShortHorizon(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	xs := simulateARMA(rng, 2500, []float64{0.85}, nil, 3, 1)
	r, err := Backtest(xs, BacktestConfig{
		Spec:    Spec{P: 1, WithMean: true},
		Window:  400,
		Horizon: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Failures > len(r.Origins)/10 {
		t.Fatalf("too many failures: %d", r.Failures)
	}
	// One-step AR(1) forecasts remove ~φ² of the variance vs the mean.
	if imp := r.Improvement(); imp < 0.4 {
		t.Fatalf("1-step improvement %v, want > 0.4 for φ=0.85", imp)
	}
	if wr := r.WinRate(); wr < 0.7 {
		t.Fatalf("win rate %v", wr)
	}
}

func TestHorizonStudyImprovementDecays(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	xs := simulateARMA(rng, 3000, []float64{0.8}, nil, 0, 1)
	study, err := HorizonStudy(xs, Spec{P: 1, WithMean: true}, 500, []int{1, 8, 48})
	if err != nil {
		t.Fatal(err)
	}
	i1 := study[1].Improvement()
	i48 := study[48].Improvement()
	if i1 <= i48 {
		t.Fatalf("short-horizon improvement (%v) should exceed long-horizon (%v)", i1, i48)
	}
	// Long horizons approach the mean forecast: improvement near zero.
	if math.Abs(i48) > 0.25 {
		t.Fatalf("48-step improvement %v, want ≈ 0", i48)
	}
}

func TestBacktestWhiteNoiseNoImprovement(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = 5 + rng.NormFloat64()
	}
	r, err := Backtest(xs, BacktestConfig{
		Spec:    Spec{P: 1, WithMean: true},
		Window:  300,
		Horizon: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if imp := r.Improvement(); math.Abs(imp) > 0.1 {
		t.Fatalf("white-noise improvement %v, want ≈ 0", imp)
	}
}

func TestBacktestErrors(t *testing.T) {
	xs := make([]float64, 100)
	if _, err := Backtest(xs, BacktestConfig{Spec: Spec{P: 1}, Horizon: 0}); err == nil {
		t.Fatal("want horizon error")
	}
	if _, err := Backtest(xs[:10], BacktestConfig{Spec: Spec{P: 1}, Horizon: 5}); err == nil {
		t.Fatal("want short-series error")
	}
	if _, err := HorizonStudy(xs, Spec{P: 1}, 50, nil); err == nil {
		t.Fatal("want empty-horizons error")
	}
	// A window too small for the spec makes every origin fail.
	if _, err := Backtest(xs, BacktestConfig{Spec: Spec{P: 3, Q: 3}, Horizon: 2, Window: 12, MinOrigin: 90}); err == nil {
		t.Fatal("want all-failed error")
	}
}

func TestBacktestStrideAndExpandingWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	xs := simulateARMA(rng, 800, []float64{0.5}, nil, 0, 1)
	r, err := Backtest(xs, BacktestConfig{
		Spec:    Spec{P: 1},
		Horizon: 2,
		Stride:  100,
		// Window 0: expanding window from the start.
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(r.Origins); i++ {
		if r.Origins[i]-r.Origins[i-1] != 100 {
			t.Fatalf("stride not respected: %v", r.Origins)
		}
	}
	if len(r.ModelMSPE) != len(r.Origins) || len(r.MeanMSPE) != len(r.Origins) {
		t.Fatal("result slice lengths differ")
	}
}

// TestBacktestSingleOrigin backtests a series with exactly one valid
// origin: 64 + 10 = 74 points.
func TestBacktestSingleOrigin(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	xs := simulateARMA(rng, 74, []float64{0.5}, nil, 0, 1)
	r, err := Backtest(xs, BacktestConfig{Spec: Spec{P: 1}, Horizon: 10, MinOrigin: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(r.Origins, []int{64}) {
		t.Fatalf("origins %v, want [64]", r.Origins)
	}
	if _, err := Backtest(xs[:73], BacktestConfig{Spec: Spec{P: 1}, Horizon: 10, MinOrigin: 64}); err == nil {
		t.Fatal("want short-series error with no valid origin")
	}
}

// sameBacktest requires a BacktestAll result to match the oracle's bit for
// bit, errors included.
func sameBacktest(t *testing.T, label string, got *BacktestResult, err error, want *BacktestResult, werr error) {
	t.Helper()
	if fmt.Sprint(err) != fmt.Sprint(werr) {
		t.Fatalf("%s: err %v, oracle err %v", label, err, werr)
	}
	if werr != nil {
		if got != nil {
			t.Fatalf("%s: result alongside error %v", label, err)
		}
		return
	}
	if !slices.Equal(got.Origins, want.Origins) || got.Failures != want.Failures {
		t.Fatalf("%s: origins %v failures %d, oracle %v %d", label, got.Origins, got.Failures, want.Origins, want.Failures)
	}
	if !sameBits(got.ModelMSPE, want.ModelMSPE) || !sameBits(got.MeanMSPE, want.MeanMSPE) {
		t.Fatalf("%s: MSPEs differ from the oracle's", label)
	}
}

// TestBacktestAllMatchesOracle runs random sets of (horizon, stride) pairs
// through one shared walk and compares each with its own oracle walk:
// expanding and rolling windows, default and explicit first origins,
// strides ≤0, below and above the horizon (origin sets that overlap only
// in part), horizons with one or no valid origin, and series with a NaN,
// so fits fail for the windows that cover it.
func TestBacktestAllMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	specs := []Spec{{P: 1, WithMean: true}, {P: 2, Q: 1, WithMean: true}, {P: 1, D: 1}}
	var partial, failed, rejected int
	for trial := 0; trial < 30; trial++ {
		n := 150 + rng.Intn(120)
		xs := randomSeries(rng, n)
		if trial%3 == 2 {
			xs[70+rng.Intn(n-70)] = math.NaN()
		}
		base := BacktestConfig{
			Spec:   specs[trial%len(specs)],
			Window: []int{0, -3, 40, 90}[rng.Intn(4)],
		}
		if rng.Intn(2) == 0 {
			// Expanding windows this short fail to fit.
			base.MinOrigin = 5 + rng.Intn(60)
		}
		first := base.MinOrigin
		if first <= 0 {
			first = max(base.Window, 64)
		}
		horizons := make([]int, 2+rng.Intn(4))
		strides := make([]int, len(horizons))
		for i := range horizons {
			h := 1 + rng.Intn(24)
			switch rng.Intn(8) {
			case 0:
				h = n - first // exactly one origin
			case 1:
				h = n - first + 1 // none
			case 2:
				h = 0
			}
			switch rng.Intn(4) {
			case 0:
				strides[i] = -rng.Intn(2)
			case 1:
				strides[i] = 1 + rng.Intn(max(h, 1))
			default:
				strides[i] = h + 1 + rng.Intn(12)
			}
			horizons[i] = h
		}
		res, errs := BacktestAll(xs, base, horizons, strides)
		for i, h := range horizons {
			c := base
			c.Horizon, c.Stride = h, strides[i]
			want, werr := backtestOracle(xs, c)
			sameBacktest(t, fmt.Sprintf("trial %d config %+v", trial, c), res[i], errs[i], want, werr)
			switch {
			case werr != nil:
				rejected++
			case want.Failures > 0:
				failed++
				if len(want.Origins) > 1 {
					partial++
				}
			}
		}
	}
	if partial == 0 || failed == 0 || rejected == 0 {
		t.Fatalf("cases not covered: %d partly failed, %d with failures, %d rejected", partial, failed, rejected)
	}
}

// TestForecastPrefix checks the property BacktestAll relies on: a forecast
// to horizon H starts with the forecast to any h < H, bit for bit.
func TestForecastPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for _, spec := range []Spec{
		{P: 2, Q: 1, WithMean: true},
		{P: 1, D: 1, Q: 1},
		{P: 1, D: 1, SP: 1, SD: 1, Period: 24},
		{P: 2, Q: 1, SP: 1, SQ: 1, Period: 24, WithMean: true},
	} {
		m, err := Fit(randomSeries(rng, 300), spec)
		if err != nil {
			t.Fatalf("%v: %v", spec, err)
		}
		const H = 48
		long, err := m.Forecast(H)
		if err != nil {
			t.Fatal(err)
		}
		for h := 1; h < H; h++ {
			fc, err := m.Forecast(h)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(fc.Mean, long.Mean[:h]) {
				t.Fatalf("%v: Forecast(%d).Mean is not the prefix of Forecast(%d).Mean", spec, h, H)
			}
		}
	}
}
