package serve

import (
	"fmt"
	"math"
	"net/http"
	"testing"

	"rentplan/internal/core"
	"rentplan/internal/demand"
	"rentplan/internal/market"
	"rentplan/internal/num"
	"rentplan/internal/stats"
)

// stepTrace is one seeded evaluation trace: realised hourly spot prices,
// demand, and the price history summarised into the tree base distribution.
type stepTrace struct {
	actual, demand []float64
	base           stats.Discrete
}

func newStepTrace(t *testing.T, seed int64, T int) stepTrace {
	t.Helper()
	g, err := market.NewGenerator(market.C1Medium, seed)
	if err != nil {
		t.Fatal(err)
	}
	hourly, err := g.Trace(90).Hourly(0, 90*24)
	if err != nil {
		t.Fatal(err)
	}
	return stepTrace{
		actual: hourly[60*24 : 60*24+T],
		demand: demand.Series(demand.NewTruncNormal(0.4, 0.2, seed), T),
		base:   stats.NewDiscreteFromSamples(hourly[:60*24], 1e-3),
	}
}

// driveSteps executes the trace through the daemon's step API one slot at a
// time, reporting the executed inventory with every request, and replays
// the returned decisions exactly as core's batch executor does (pay rate,
// emergency correction, inventory balance, cost accumulation order).
func driveSteps(t *testing.T, s *Server, tenant string, tr stepTrace, bid float64, stages, stride int) (*core.Outcome, int) {
	t.Helper()
	par := core.DefaultParams(market.C1Medium)
	lambda, err := par.OnDemandRate()
	if err != nil {
		t.Fatal(err)
	}
	out := &core.Outcome{}
	replans := 0
	inv := par.Epsilon
	for slot := range tr.actual {
		req := &PlanRequest{
			Tenant:     tenant,
			Model:      "step",
			Class:      string(market.C1Medium),
			Demand:     tr.demand,
			Bid:        bid,
			Stages:     stages,
			MaxBranch:  4,
			RootPrice:  tr.actual[slot],
			BaseValues: tr.base.Values,
			BaseProbs:  tr.base.Probs,
			Slot:       slot,
			Inventory:  inv,
			Replan:     stride,
		}
		rec, resp := postPlan(t, s, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("slot %d: status %d: %s", slot, rec.Code, rec.Body.String())
		}
		if !resp.PlanReuse {
			replans++
		}
		rent, alpha := *resp.Rent, math.Max(0, *resp.Generate)
		// A reused plan serves a recourse stage, which pays λ when the bid
		// lost; a fresh plan's root carries the known spot price.
		rate, oob := tr.actual[slot], false
		if resp.PlanReuse && bid < tr.actual[slot] {
			rate, oob = lambda, true
		}
		if alpha > 0 {
			rent = true
		}
		dem := tr.demand[slot]
		if short := dem - inv - alpha; short > num.DemandTol {
			alpha += short
			if !rent {
				rent = true
				rate = math.Min(tr.actual[slot], lambda)
			}
		}
		if rent {
			out.RentSlots++
			if oob {
				out.OutOfBidSlots++
			}
			out.Breakdown.Compute += rate
		}
		inv = math.Max(0, inv+alpha-dem)
		out.Breakdown.TransferIn += par.UnitGenCost() * alpha
		out.Breakdown.Holding += par.HoldingCost() * inv
		out.Breakdown.TransferOut += par.Pricing.TransferOutPerGB * dem
	}
	out.Cost = out.Breakdown.Total()
	return out, replans
}

// TestStepMatchesBatchExecutor drives the daemon's step API slot by slot on
// seeded traces and checks it realises exactly what core.RunStochastic does
// on the same trace: the same cost bit for bit and the same rent, out-of-bid
// and re-plan counts. Both walk their plans through core.Roller; the strides
// beyond TreeStages+1 pin that a plan whose tree runs out inside the stride
// is re-planned at once on both sides.
func TestStepMatchesBatchExecutor(t *testing.T) {
	const T, stages = 36, 5
	s := testServer(t)
	for _, seed := range []int64{3, 7, 21, 40} {
		tr := newStepTrace(t, seed, T)
		bid := stats.Mean(tr.base.Values)
		bids := make([]float64, T)
		for i := range bids {
			bids[i] = bid
		}
		for _, stride := range []int{1, 2, 3, stages + 1, stages + 2, stages + 3} {
			cfg := &core.ExecConfig{
				Par:        core.DefaultParams(market.C1Medium),
				Actual:     tr.actual,
				Demand:     tr.demand,
				Base:       tr.base,
				TreeStages: stages,
				MaxBranch:  4,
				Replan:     stride,
			}
			want, err := core.RunStochastic(cfg, bids)
			if err != nil {
				t.Fatal(err)
			}
			tenant := fmt.Sprintf("diff-%d-%d", seed, stride)
			got, replans := driveSteps(t, s, tenant, tr, bid, stages, stride)
			if got.Cost != want.Cost {
				t.Errorf("seed %d stride %d: daemon cost %v != batch cost %v", seed, stride, got.Cost, want.Cost)
			}
			if got.RentSlots != want.RentSlots || got.OutOfBidSlots != want.OutOfBidSlots {
				t.Errorf("seed %d stride %d: rent/out-of-bid slots %d/%d != batch %d/%d",
					seed, stride, got.RentSlots, got.OutOfBidSlots, want.RentSlots, want.OutOfBidSlots)
			}
			if replans != want.Replans {
				t.Errorf("seed %d stride %d: daemon replans %d != batch %d", seed, stride, replans, want.Replans)
			}
		}
	}
}
