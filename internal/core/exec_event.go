package core

import "context"

// This file holds the event-driven variant of the rolling stochastic
// executor. RunStochastic re-plans on a fixed stride regardless of what the
// market did; at fleet scale that polling cadence is the bottleneck, because
// the overwhelming majority of slots change nothing an ASP's plan depends
// on. The event-driven executor instead re-plans only when one of the two
// events that can actually invalidate the committed plan occurs:
//
//   - the realised price crosses the bid (the in-bid/out-of-bid regime the
//     scenario tree was built around flips), or
//   - the committed plan's lookahead is exhausted (the executed path reaches
//     a leaf of the plan's tree).
//
// Both executors walk their plans through the same Roller (exec_rolling.go)
// and differ only in this wake rule, so slots between events cost no solves
// at all. On a trace whose price never crosses the bid, the executor is
// bit-identical to RunStochastic with any Replan ≥ TreeStages+1 (a plan is
// consumed exactly to its horizon before the next solve), which the tests
// pin.

// RunStochasticEventsCtx evaluates the SRRP spot policy with price-trigger
// re-plans instead of a fixed replan stride. ExecConfig.Replan is ignored;
// everything else (budget ladder, faults, tree shape) behaves as in
// RunStochastic. Each re-plan solve runs under ctx (layered with cfg.Budget
// when set), and a cancellation aborts the run with ctx's error instead of
// silently degrading every remaining slot.
func RunStochasticEventsCtx(ctx context.Context, cfg *ExecConfig, bids []float64) (*Outcome, error) {
	return runRolling(ctx, cfg, bids, true)
}
