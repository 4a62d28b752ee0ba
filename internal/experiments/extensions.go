package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"rentplan/internal/arima"
	"rentplan/internal/benders"
	"rentplan/internal/core"
	"rentplan/internal/demand"
	"rentplan/internal/market"
	"rentplan/internal/scenario"
	"rentplan/internal/stats"
)

// The experiments in this file go beyond the paper's evaluation: they
// exercise the capacitated formulation (constraint (3), which the paper
// states but omits from its simulations) and systematise the "short-term
// and long-term prediction" study Sec. IV-A only mentions in passing.

// CapacityPoint is one point of the capacitated-DRRP sweep.
type CapacityPoint struct {
	// Capacity is the per-slot bottleneck Q(i,t) (GB of output per hour).
	Capacity float64
	// Cost is the optimal capacitated cost; Ratio divides by the
	// uncapacitated optimum (≥ 1); Feasible is false when capacity cannot
	// meet demand at all.
	Cost     float64
	Ratio    float64
	Feasible bool
	// MaxAlpha is the largest per-slot generation in the optimal plan.
	MaxAlpha float64
}

// CapacitySweep solves DRRP for m1.large under progressively tighter
// bottleneck constraints (3). The uncapacitated optimum batches production;
// as Q(i,t) approaches the mean demand the plan is forced toward
// just-in-time operation and the cost ratio rises; below the peak demand
// the instance becomes infeasible.
func CapacitySweep(cfg *Config, capacities []float64) ([]CapacityPoint, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(capacities) == 0 {
		return nil, fmt.Errorf("experiments: no capacities")
	}
	par := core.DefaultParams(market.M1Large)
	par.Solver.Progress = cfg.SolverProgress
	lambda, err := par.OnDemandRate()
	if err != nil {
		return nil, err
	}
	// Constant capacities take the exact Florian–Klein DP, so the full
	// 24-hour horizon stays fast.
	T := 24
	prices := constSlice(T, lambda)
	dem := demand.Series(demand.NewTruncNormal(0.4, 0.2, cfg.DemandSeed), T)
	free, err := core.SolveDRRP(par, prices, dem)
	if err != nil {
		return nil, err
	}
	var out []CapacityPoint
	for _, q := range capacities {
		pt := CapacityPoint{Capacity: q}
		cp := par
		cp.ConsumptionRate = 1
		cp.Capacity = constSlice(T, q)
		plan, err := core.SolveDRRP(cp, prices, dem)
		if err != nil {
			pt.Feasible = false
			out = append(out, pt)
			continue
		}
		pt.Feasible = true
		pt.Cost = plan.Cost
		pt.Ratio = plan.Cost / free.Cost
		for _, a := range plan.Alpha {
			if a > pt.MaxAlpha {
				pt.MaxAlpha = a
			}
		}
		out = append(out, pt)
	}
	return out, nil
}

// HorizonPoint summarises forecast skill at one prediction horizon.
type HorizonPoint struct {
	Horizon     int
	Improvement float64 // 1 − MSPE(model)/MSPE(mean), averaged over origins
	WinRate     float64
	Origins     int
}

// ForecastHorizonStudy backtests the short-range ARMA forecaster on the
// c1.medium hourly series at several horizons. The paper observes that the
// best model is "hardly useful" for parameterising DRRP: quantitatively,
// the improvement over the mean forecast decays toward zero well before the
// 24-hour horizon a day-ahead plan needs.
func ForecastHorizonStudy(cfg *Config, horizons []int) ([]HorizonPoint, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(horizons) == 0 {
		return nil, fmt.Errorf("experiments: no horizons")
	}
	tr, ok := cfg.Traces[market.C1Medium]
	if !ok {
		return nil, fmt.Errorf("experiments: c1.medium trace missing")
	}
	hours := tr.Days * 24
	if hours > 200*24 {
		hours = 200 * 24 // cap the series so the study stays fast
	}
	series, err := tr.Events.Resample(0, hours)
	if err != nil {
		return nil, err
	}
	strides := make([]int, len(horizons))
	for i, h := range horizons {
		strides[i] = max(h, 12) // cap the number of refits; skill estimates stay stable
	}
	res, errs := arima.BacktestAll(series, arima.BacktestConfig{
		Spec:   arima.Spec{P: 2, Q: 1, WithMean: true},
		Window: cfg.HistDays * 24,
	}, horizons, strides)
	out := make([]HorizonPoint, 0, len(horizons))
	for i, h := range horizons {
		if errs[i] != nil {
			return nil, fmt.Errorf("experiments: horizon %d: %w", h, errs[i])
		}
		r := res[i]
		out = append(out, HorizonPoint{
			Horizon:     h,
			Improvement: r.Improvement(),
			WinRate:     r.WinRate(),
			Origins:     len(r.Origins),
		})
	}
	return out, nil
}

// FederationPoint reports planning economics for one coalition size.
type FederationPoint struct {
	Providers int
	// MeanPrice is the average effective (per-slot minimum) spot price.
	MeanPrice float64
	// OracleCost is the perfect-information DRRP cost on the effective
	// price series; Ratio divides by the single-provider cost.
	OracleCost float64
	Ratio      float64
	// Switches counts winning-provider changes over the horizon.
	Switches int
}

// FederationStudy quantifies the paper's multi-provider scenario ("a cloud
// market formed by ... a coalition of multiple IaaS providers"): with k
// independent providers the ASP rents each slot from the cheapest one, so
// the effective price is a minimum of k draws and planning costs fall
// monotonically with coalition size, at the expense of provider churn.
func FederationStudy(cfg *Config, sizes []int) ([]FederationPoint, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("experiments: no coalition sizes")
	}
	const days = 40
	T := days * 24
	par := core.DefaultParams(market.C1Medium)
	par.Solver.Progress = cfg.SolverProgress
	dem := demand.Series(demand.NewTruncNormal(0.4, 0.2, cfg.DemandSeed), T)
	var out []FederationPoint
	var base float64
	for i, k := range sizes {
		fed, err := market.NewFederation(market.C1Medium, k, days, cfg.DemandSeed+101)
		if err != nil {
			return nil, err
		}
		prices, who, err := fed.HourlyMin(0, T)
		if err != nil {
			return nil, err
		}
		plan, err := core.SolveDRRP(par, prices, dem)
		if err != nil {
			return nil, err
		}
		pt := FederationPoint{
			Providers:  k,
			OracleCost: plan.Cost,
			Switches:   market.SwitchCount(who),
		}
		s := 0.0
		for _, p := range prices {
			s += p
		}
		pt.MeanPrice = s / float64(T)
		if i == 0 {
			base = plan.Cost
		}
		pt.Ratio = plan.Cost / base
		out = append(out, pt)
	}
	return out, nil
}

// RiskPoint is one point on the risk-aversion frontier.
type RiskPoint struct {
	Lambda  float64
	ExpCost float64 // expected cost of the λ-averse plan
	CVaR    float64 // tail expectation (α = 0.7) of the same plan
}

// RiskFrontier sweeps the mean-CVaR weight λ of the risk-averse SRRP
// extension on an m1.xlarge tree with a risky bid and a storage-heavy
// application (2× the paper's I/O rate): pre-producing hedges the expensive
// out-of-bid tail but pays certain holding cost, so moving along the
// frontier trades expected cost for tail protection.
func RiskFrontier(cfg *Config, lambdas []float64) ([]RiskPoint, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(lambdas) == 0 {
		return nil, fmt.Errorf("experiments: no lambdas")
	}
	base := stats.Discrete{
		Values: []float64{0.22, 0.24, 0.26},
		Probs:  []float64{0.3, 0.4, 0.3},
	}
	par := core.DefaultParams(market.M1XLarge)
	par.Solver.Progress = cfg.SolverProgress
	par.Pricing.IOPerGBHour *= 2
	lambdaOD, err := par.OnDemandRate()
	if err != nil {
		return nil, err
	}
	const bid = 0.24
	tree, err := scenario.Build(base, []float64{bid, bid, bid}, lambdaOD, scenario.BuildConfig{
		Stages:    3,
		RootPrice: 0.24,
	})
	if err != nil {
		return nil, err
	}
	dem := []float64{0.4, 0.4, 0.4, 0.4}
	var out []RiskPoint
	const alpha = 0.7
	for _, l := range lambdas {
		plan, err := core.SolveSRRPCVaR(par, tree, dem, l, alpha)
		if err != nil {
			return nil, err
		}
		out = append(out, RiskPoint{Lambda: l, ExpCost: plan.ExpCost, CVaR: plan.CVaR})
	}
	return out, nil
}

// ReductionPoint is one row of the SAA scenario-reduction study.
type ReductionPoint struct {
	// Kept is the number of scenarios the reduction retained; Vertices the
	// size of the tree they fold into.
	Kept     int
	Vertices int
	// Bound is the nested L-shaped lower bound (plus the transfer-out
	// constant) on the folded tree; Gap its absolute deviation from the
	// full-sample bound; Transport the transport-distance bound the
	// reduction reports for the wait-and-see value error.
	Bound     float64
	Gap       float64
	Transport float64
}

// ScenarioReductionStudy exercises the SAA + scenario-reduction pipeline on
// an SRRP instance: sample an empirical fan of price paths from the model
// tree, shrink it by transport-optimal backward reduction, fold the kept
// paths back into a scenario tree, and solve each tree with the parallel
// nested L-shaped method. The study reports how the optimal-value bound
// degrades as scenarios are merged, next to the a-priori transport bound.
func ScenarioReductionStudy(cfg *Config, keeps []int) ([]ReductionPoint, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(keeps) == 0 {
		return nil, fmt.Errorf("experiments: no reduction targets")
	}
	base := stats.Discrete{
		Values: []float64{0.056, 0.058, 0.060, 0.062, 0.064},
		Probs:  []float64{0.15, 0.2, 0.3, 0.2, 0.15},
	}
	par := core.DefaultParams(market.C1Medium)
	par.Solver.Progress = cfg.SolverProgress
	lambdaOD, err := par.OnDemandRate()
	if err != nil {
		return nil, err
	}
	const stages, samples = 5, 48
	bids := constSlice(stages, 0.060)
	tree, err := scenario.Build(base, bids, lambdaOD, scenario.BuildConfig{
		Stages:    stages,
		MaxBranch: 3,
		RootPrice: 0.060,
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.DemandSeed))
	fan, err := tree.SampleFan(samples, rng)
	if err != nil {
		return nil, err
	}
	dem := demand.Series(demand.NewTruncNormal(0.4, 0.2, cfg.DemandSeed), tree.Stages())
	solveFan := func(f *scenario.Fan) (bound float64, vertices int, err error) {
		ft, err := f.Tree()
		if err != nil {
			return 0, 0, err
		}
		res, b, err := core.SolveSRRPNestedLShaped(par, ft, dem, benders.NestedOptions{})
		if err != nil {
			return 0, 0, err
		}
		if !res.Converged {
			return 0, 0, fmt.Errorf("experiments: nested solve did not converge (gap %g)", res.Cost-res.Bound)
		}
		return b, ft.N(), nil
	}
	fullBound, _, err := solveFan(fan)
	if err != nil {
		return nil, err
	}
	var out []ReductionPoint
	for _, k := range keeps {
		red, transport, err := fan.Reduce(k)
		if err != nil {
			return nil, err
		}
		bound, vertices, err := solveFan(red)
		if err != nil {
			return nil, err
		}
		out = append(out, ReductionPoint{
			Kept:      red.Len(),
			Vertices:  vertices,
			Bound:     bound,
			Gap:       math.Abs(bound - fullBound),
			Transport: transport,
		})
	}
	return out, nil
}
