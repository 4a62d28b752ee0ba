package arima

import (
	"math"
	"math/rand"
	"testing"

	"rentplan/internal/optimize"
)

// oracleObjective is the CSS objective as the reference implementation
// computes it.
func oracleObjective(w []float64, spec Spec, x []float64) float64 {
	ar, ma, sar, sma, mu := unpack(spec, x)
	a := expandPoly(ar, sar, spec.Period)
	b := expandMA(ma, sma, spec.Period)
	if !stationary(a) || !stationary(negate(b)) {
		return math.Inf(1)
	}
	_, css := cssResiduals(w, a, b, mu)
	return css
}

func sameBits(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// cssSpecs covers the kernel's code paths: no lags at all, AR only, one MA
// lag (residual carried in a register), several MA lags (residual history
// in memory), and seasonal period-24 models with SP/SQ ≥ 1.
var cssSpecs = []Spec{
	{WithMean: true},
	{P: 2, WithMean: true},
	{Q: 1},
	{P: 2, Q: 1, WithMean: true},
	{P: 1, Q: 2},
	{Q: 3, WithMean: true},
	{P: 2, Q: 2, WithMean: true},
	{SP: 1, Period: 24},
	{P: 2, Q: 1, SP: 2, Period: 24, WithMean: true},
	{P: 1, Q: 1, SQ: 1, Period: 24},
	{P: 2, Q: 2, SP: 1, SQ: 1, Period: 24, WithMean: true},
	{Q: 1, SQ: 2, Period: 24},
}

func randomSeries(rng *rand.Rand, n int) []float64 {
	w := make([]float64, n)
	level := 0.06
	for t := range w {
		level += 0.002 * rng.NormFloat64()
		w[t] = level + 0.01*rng.NormFloat64()
	}
	return w
}

// randomParams draws a parameter vector; wide draws often leave the
// stationary/invertible region, narrow ones stay inside it.
func randomParams(rng *rand.Rand, spec Spec, scale float64) []float64 {
	x := make([]float64, spec.nParams())
	for i := range x {
		x[i] = scale * (2*rng.Float64() - 1)
	}
	if spec.WithMean {
		x[len(x)-1] = 0.06 + 0.01*rng.NormFloat64()
	}
	return x
}

func TestCSSKernelMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, spec := range cssSpecs {
		for _, n := range []int{3, 60, 200} {
			w := randomSeries(rng, n)
			k := newCSSKernel(w, spec, false)
			kept := newCSSKernel(w, spec, true)
			admissible := 0
			for trial := 0; trial < 60; trial++ {
				scale := 0.3
				if trial%3 == 0 {
					scale = 1.5
				}
				x := randomParams(rng, spec, scale)
				want := oracleObjective(w, spec, x)
				if got := k.objective(spec, x); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%v n=%d x=%v: objective %v, oracle %v", spec, n, x, got, want)
				}

				ar, ma, sar, sma, mu := unpack(spec, x)
				a := expandPoly(ar, sar, spec.Period)
				b := expandMA(ma, sma, spec.Period)
				k.setCoefs(ar, ma, sar, sma)
				if !sameBits(k.a, a) || !sameBits(k.b, b) {
					t.Fatalf("%v x=%v: expansion a=%v b=%v, oracle a=%v b=%v", spec, x, k.a, k.b, a, b)
				}
				ok := stationary(a) && stationary(negate(b))
				if k.admissible() != ok {
					t.Fatalf("%v x=%v: admissible=%v, oracle %v", spec, x, !ok, ok)
				}
				if ok {
					admissible++
				}
				// Residuals are defined off the admissible region too.
				e, css := cssResiduals(w, a, b, mu)
				kept.setCoefs(ar, ma, sar, sma)
				if got := kept.css(mu); math.Float64bits(got) != math.Float64bits(css) {
					t.Fatalf("%v x=%v: css %v, oracle %v", spec, x, got, css)
				}
				if !sameBits(kept.e, e) {
					t.Fatalf("%v x=%v: residuals differ from the oracle", spec, x)
				}
			}
			if n > 3 && admissible == 0 {
				t.Fatalf("%v: no admissible draw exercised the recursion", spec)
			}
		}
	}
}

func TestSchurCohnMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 2000; trial++ {
		a := make([]float64, 1+rng.Intn(6))
		for i := range a {
			a[i] = 1.2 * (2*rng.Float64() - 1)
		}
		k := &cssKernel{sc0: make([]float64, len(a)), sc1: make([]float64, len(a))}
		if got, want := k.schurCohn(a, false), stationary(a); got != want {
			t.Fatalf("a=%v: stationary %v, oracle %v", a, got, want)
		}
		if got, want := k.schurCohn(a, true), stationary(negate(a)); got != want {
			t.Fatalf("−a=%v: stationary %v, oracle %v", a, got, want)
		}
	}
}

// TestFitMatchesOracle runs Fit's optimisation on the oracle objective and
// requires Fit to land on the same parameters and criteria bit for bit.
func TestFitMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	xs := simulateARMA(rng, 400, []float64{0.5, 0.2}, []float64{0.3}, 0.06, 0.01)
	for _, spec := range []Spec{
		{P: 2, Q: 1, WithMean: true},
		{P: 1, Q: 2},
		{P: 1, SP: 1, Period: 24, WithMean: true},
	} {
		m, err := Fit(xs, spec)
		if err != nil {
			t.Fatal(err)
		}
		obj := func(x []float64) float64 { return oracleObjective(xs, spec, x) }
		res, err := optimize.Minimize(obj, initialGuess(xs, spec), optimize.Options{Restarts: 2})
		if err != nil {
			t.Fatal(err)
		}
		ar, ma, sar, sma, mu := unpack(spec, res.X)
		nEff := float64(m.N)
		if !sameBits(m.AR, ar) || !sameBits(m.MA, ma) || !sameBits(m.SAR, sar) || !sameBits(m.SMA, sma) ||
			math.Float64bits(m.Mean) != math.Float64bits(mu) ||
			math.Float64bits(m.Sigma2) != math.Float64bits(res.F/nEff) {
			t.Fatalf("%v: Fit %+v, oracle x=%v F=%v", spec, m, res.X, res.F)
		}
		e, _ := cssResiduals(xs, expandPoly(ar, sar, spec.Period), expandMA(ma, sma, spec.Period), mu)
		if !sameBits(m.Residuals(), e) {
			t.Fatalf("%v: Residuals differ from the oracle", spec)
		}
	}
}

func TestCSSObjectiveDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	w := randomSeries(rng, 500)
	for _, spec := range cssSpecs {
		k := newCSSKernel(w, spec, false)
		x := randomParams(rng, spec, 0.1)
		if allocs := testing.AllocsPerRun(20, func() { k.objective(spec, x) }); allocs != 0 {
			t.Errorf("%v: %v allocations per objective evaluation, want 0", spec, allocs)
		}
	}
}

func TestFitRejectsNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	base := simulateARMA(rng, 300, []float64{0.6}, nil, 1, 0.1)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, at := range []int{0, 150, len(base) - 1} {
			xs := append([]float64(nil), base...)
			xs[at] = bad
			if m, err := Fit(xs, Spec{P: 2, Q: 1, WithMean: true}); err == nil {
				t.Errorf("observation %v at %d: Fit returned sigma2=%v AIC=%v and no error", bad, at, m.Sigma2, m.AIC)
			}
			if _, _, err := AutoFit(xs, AutoOptions{MaxP: 1, MaxQ: 1, WithMean: true}); err == nil {
				t.Errorf("observation %v at %d: AutoFit ranked a model fitted on it", bad, at)
			}
		}
	}
}
