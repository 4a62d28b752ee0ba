package core

import (
	"context"
	"errors"
	"math"
	"math/rand"

	"rentplan/internal/scenario"
)

// Roller is the state of one rolling-horizon SRRP execution between
// re-plans (Sec. V-C: "a revised plan is issued periodically"): the
// committed plan, the slot its root stands for, the slot at which it
// expires, and the vertex path executed so far through its scenario tree.
// The batch executors (RunStochastic, RunStochasticEventsCtx) and the serve
// layer's per-tenant step requests all walk their plans through a Roller,
// so every caller follows the same tree path for the same realised prices.
// The zero value holds no plan.
type Roller struct {
	plan   *StochasticPlan
	root   int
	expiry int
	path   []int // path[k] is the vertex executed at slot root+k; path[0] == 0
}

// Reset commits plan, rooted at slot root and serving slots up to
// expiry-1. A nil plan clears the Roller, so the next Advance asks for a
// re-plan. The path buffer is reused across resets.
func (r *Roller) Reset(plan *StochasticPlan, root, expiry int) {
	r.plan, r.root, r.expiry = plan, root, expiry
	r.path = append(r.path[:0], 0)
}

// Plan returns the committed plan, or nil when there is none.
func (r *Roller) Plan() *StochasticPlan { return r.plan }

// Advance returns the plan vertex executed at slot, extending the path
// along the child that matches the realised price (actual against bid) for
// every slot not walked yet. It returns -1, meaning the caller must
// re-plan, when there is no plan, slot lies outside [root, expiry), or the
// plan's horizon is exhausted before slot.
func (r *Roller) Advance(slot int, actual, bid float64) int {
	if r.plan == nil || slot < r.root || slot >= r.expiry {
		return -1
	}
	k := slot - r.root
	for len(r.path) <= k {
		next := matchChild(r.plan.Tree, r.path[len(r.path)-1], actual, bid)
		if next < 0 {
			return -1
		}
		r.path = append(r.path, next)
	}
	return r.path[k]
}

// runRolling is the rolling-horizon SRRP executor behind RunStochastic and
// RunStochasticEventsCtx. A committed plan is walked through a Roller and a
// new SRRP is solved from the realised state whenever the Roller asks for
// one: on expiry (root+Replan) or horizon exhaustion, and — when
// onCrossing is set — at every slot where the realised price crosses the
// bid, in which case plans never expire on the clock. Each re-plan takes
// the degradation ladder when it is armed and the historical
// error → just-in-time path otherwise. A ctx cancellation aborts the run
// with ctx's error.
func runRolling(ctx context.Context, cfg *ExecConfig, bids []float64, onCrossing bool) (*Outcome, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(bids) != len(cfg.Demand) {
		return nil, errors.New("core: bids length mismatch")
	}
	if cfg.Base.Len() == 0 {
		return nil, errors.New("core: stochastic policy needs a base distribution")
	}
	lambda, err := cfg.Par.OnDemandRate()
	if err != nil {
		return nil, err
	}
	T := len(cfg.Demand)
	stride := cfg.Replan
	if stride <= 0 {
		stride = 1
	}
	if onCrossing || stride > T {
		stride = T // the plan never expires before the horizon ends
	}
	lookahead := cfg.TreeStages
	if lookahead < 0 {
		lookahead = 0
	}
	var roll Roller
	var degs []Degradation
	replans := 0
	aborted := false
	out, outErr := execute(cfg, func(t int, inv float64) decision {
		if aborted || ctx.Err() != nil {
			// Cancellation: serve the remaining slots just in time without
			// entering the ladder; the run is discarded below.
			aborted = true
			return justInTime(cfg, t, inv)
		}
		// A bid crossing flips the out-of-bid regime the committed plan's
		// tree was built around: wake and re-plan from the realised state.
		if onCrossing && t > 0 && (bids[t] < cfg.Actual[t]) != (bids[t-1] < cfg.Actual[t-1]) {
			roll.Reset(nil, t, t)
		}
		v := roll.Advance(t, cfg.Actual[t], bids[t])
		if v < 0 {
			stages := lookahead
			if t+stages >= T {
				stages = T - 1 - t
			}
			replans++
			var plan *StochasticPlan
			if cfg.degradable() {
				var rung DegradeRung
				plan, rung = planStochasticLadder(ctx, cfg, bids, t, stages, inv)
				if rung != RungFull {
					degs = append(degs, Degradation{Slot: t, Rung: rung})
				}
			} else if p, err := planStochastic(ctx, cfg, bids, t, stages, inv); err == nil {
				plan = p
			}
			roll.Reset(plan, t, t+stride)
			if plan == nil {
				// Bottom rung or failed solve: serve this slot just in time
				// and retry planning at the next.
				return justInTime(cfg, t, inv)
			}
			v = 0
		}
		plan := roll.Plan()
		rate := cfg.Actual[t]
		oob := false
		if v > 0 && bids[t] < cfg.Actual[t] {
			rate = lambda // recourse stage lost the auction
			oob = true
		}
		return decision{rent: plan.Chi[v], alpha: plan.Alpha[v], payRate: rate, outOfBid: oob}
	})
	if aborted {
		return nil, ctx.Err()
	}
	if outErr == nil {
		out.Replans = replans
		out.Degradations = degs
	}
	return out, outErr
}

// justInTime rents for slot t exactly the demand the inventory cannot
// cover, at the realised spot price.
func justInTime(cfg *ExecConfig, t int, inv float64) decision {
	need := math.Max(0, cfg.Demand[t]-inv)
	return decision{rent: need > 0, alpha: need, payRate: cfg.Actual[t]}
}

// EvaluateStochasticPlanMC estimates the out-of-sample expected cost of a
// stochastic plan by Monte Carlo: price scenarios are sampled from the
// plan's own tree, the plan's per-vertex decisions are replayed along the
// sampled path, and the realised costs are averaged. For a plan evaluated
// on its own tree this converges to ExpCost, which the tests assert; it is
// also the tool for evaluating a plan against a *different* tree (model
// misspecification studies).
func EvaluateStochasticPlanMC(par Params, plan *StochasticPlan, dem []float64, rng *rand.Rand, samples int) (mean, stderr float64, err error) {
	if plan == nil || plan.Tree == nil {
		return 0, 0, errors.New("core: nil plan")
	}
	if samples <= 1 {
		return 0, 0, errors.New("core: need at least 2 samples")
	}
	tree := plan.Tree
	if len(dem) != tree.Stages() {
		return 0, 0, errors.New("core: demand/stage mismatch")
	}
	children := make([][]int, tree.N())
	for v := 1; v < tree.N(); v++ {
		children[tree.Parent[v]] = append(children[tree.Parent[v]], v)
	}
	var sum, sumSq float64
	for s := 0; s < samples; s++ {
		cost := 0.0
		v := 0
		for {
			stage := tree.Stage[v]
			if plan.Chi[v] {
				cost += tree.Price[v]
			}
			cost += par.UnitGenCost() * plan.Alpha[v]
			cost += par.HoldingCost() * plan.Beta[v]
			cost += par.Pricing.TransferOutPerGB * dem[stage]
			if len(children[v]) == 0 {
				break
			}
			// Sample the next state by conditional probability.
			u := rng.Float64() * tree.Prob[v]
			acc := 0.0
			next := children[v][len(children[v])-1]
			for _, c := range children[v] {
				acc += tree.Prob[c]
				if u <= acc {
					next = c
					break
				}
			}
			v = next
		}
		sum += cost
		sumSq += cost * cost
	}
	n := float64(samples)
	mean = sum / n
	variance := (sumSq - sum*sum/n) / (n - 1)
	if variance < 0 {
		variance = 0
	}
	return mean, math.Sqrt(variance / n), nil
}

// ValueOfStochasticSolution computes the classic VSS decomposition for a
// scenario tree: the cost of the expected-value policy (solve DRRP on the
// stage-expected prices, then evaluate that fixed rental pattern against
// the tree) minus the stochastic optimum. A positive VSS quantifies how
// much explicitly modelling the price distribution is worth — the paper's
// central argument for SRRP over DRRP.
func ValueOfStochasticSolution(par Params, tree *scenario.Tree, dem []float64) (vss, evCost, spCost float64, err error) {
	sp, err := SolveSRRP(par, tree, dem)
	if err != nil {
		return 0, 0, 0, err
	}
	// Expected-value problem: deterministic prices = stage expectations.
	S := tree.Stages()
	prices := make([]float64, S)
	for s := 0; s < S; s++ {
		prices[s] = tree.ExpectedPrice(s)
	}
	evPlan, err := SolveDRRP(par, prices, dem)
	if err != nil {
		return 0, 0, 0, err
	}
	// Evaluate the EV plan's stage decisions on the tree: the rental and
	// production pattern is fixed per stage (it cannot adapt), demands are
	// certain, so only the compute cost varies with the realised price.
	evCost = 0.0
	for v := 0; v < tree.N(); v++ {
		s := tree.Stage[v]
		pv := tree.Prob[v]
		if evPlan.Chi[s] {
			evCost += pv * tree.Price[v]
		}
		evCost += pv * (par.UnitGenCost()*evPlan.Alpha[s] +
			par.HoldingCost()*evPlan.Beta[s] +
			par.Pricing.TransferOutPerGB*dem[s])
	}
	return evCost - sp.ExpCost, evCost, sp.ExpCost, nil
}
