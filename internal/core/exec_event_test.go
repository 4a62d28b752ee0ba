package core

import (
	"context"
	"math"
	"testing"

	"rentplan/internal/market"
	"rentplan/internal/stats"
)

func constantBids(T int, v float64) []float64 {
	out := make([]float64, T)
	for i := range out {
		out[i] = v
	}
	return out
}

// On a trace the bid never loses (bid >= every realised price), the event
// executor's only wake-ups are plan expiries, which land exactly where
// RunStochastic re-plans with any Replan >= TreeStages+1: a stride of
// TreeStages+1 expires as the tree runs out, and a longer one re-plans at
// the first slot the exhausted tree no longer covers. The two executors
// therefore solve the same subproblems from the same states and must agree
// bit for bit.
func TestEventsMatchesStrideOnCrossingFreeTrace(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		cfg := execFixture(t, market.C1Medium, 36, seed*7)
		maxP := 0.0
		for _, p := range cfg.Actual {
			maxP = math.Max(maxP, p)
		}
		bids := constantBids(36, maxP+0.01)
		got, err := RunStochasticEventsCtx(context.Background(), cfg, bids)
		if err != nil {
			t.Fatal(err)
		}
		for extra := 1; extra <= 3; extra++ {
			strideCfg := *cfg
			strideCfg.Replan = cfg.TreeStages + extra
			want, err := RunStochastic(&strideCfg, bids)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cost != want.Cost {
				t.Fatalf("seed %d, stride %d: event cost %v != stride cost %v", seed, strideCfg.Replan, got.Cost, want.Cost)
			}
			if got.Replans != want.Replans {
				t.Fatalf("seed %d, stride %d: event replans %d != stride replans %d", seed, strideCfg.Replan, got.Replans, want.Replans)
			}
			if got.RentSlots != want.RentSlots || got.OutOfBidSlots != want.OutOfBidSlots {
				t.Fatalf("seed %d, stride %d: slot counters diverge: %+v vs %+v", seed, strideCfg.Replan, got, want)
			}
		}
	}
}

// A bid below the trace's peaks forces regime crossings; each crossing must
// trigger a replan, so the event executor replans strictly more often than
// the crossing-free expiry-only count and never less than once.
func TestEventsReplansOnCrossings(t *testing.T) {
	cfg := execFixture(t, market.C1Medium, 48, 11)
	var lo, hi float64 = math.Inf(1), math.Inf(-1)
	for _, p := range cfg.Actual {
		lo = math.Min(lo, p)
		hi = math.Max(hi, p)
	}
	if hi <= lo {
		t.Skip("degenerate flat trace")
	}
	bids := constantBids(48, (lo+hi)/2)
	crossings := 0
	for i := 1; i < len(cfg.Actual); i++ {
		if (bids[i] < cfg.Actual[i]) != (bids[i-1] < cfg.Actual[i-1]) {
			crossings++
		}
	}
	if crossings == 0 {
		t.Skip("trace never crosses the midpoint bid")
	}
	out, err := RunStochasticEventsCtx(context.Background(), cfg, bids)
	if err != nil {
		t.Fatal(err)
	}
	// Expiry-only wakes are at most ceil(T/(stages+1)); crossings add more.
	expiryOnly := (48 + cfg.TreeStages) / (cfg.TreeStages + 1)
	if out.Replans <= expiryOnly {
		t.Fatalf("replans = %d, want > %d (expiry-only) given %d crossings", out.Replans, expiryOnly, crossings)
	}
	if out.Replans > 48 {
		t.Fatalf("replans = %d exceeds slot count", out.Replans)
	}
}

func TestEventsCancellation(t *testing.T) {
	cfg := execFixture(t, market.C1Medium, 36, 3)
	bids := constantBids(36, stats.Mean(cfg.Base.Values))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunStochasticEventsCtx(ctx, cfg, bids); err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestEventsBackgroundMatchesPlain requires a live context that is never
// canceled to leave the run exactly as under context.Background().
func TestEventsBackgroundMatchesPlain(t *testing.T) {
	cfg := execFixture(t, market.M1Large, 30, 5)
	bids := constantBids(30, stats.Mean(cfg.Base.Values))
	a, err := RunStochasticEventsCtx(context.Background(), cfg, bids)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b, err := RunStochasticEventsCtx(ctx, cfg, bids)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost || a.Replans != b.Replans {
		t.Fatalf("ctx variant diverged: %+v vs %+v", a, b)
	}
}
