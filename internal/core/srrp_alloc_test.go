package core

import (
	"context"
	"runtime/debug"
	"testing"

	"rentplan/internal/market"
	"rentplan/internal/scenario"
)

// TestSolveSRRPAllocations bounds the allocations of an uncapacitated SRRP
// solve on the reproduction's 5-stage, branch-4 tree: 7, the DP's one input
// array and problem header, the tree DP's plan (its header and three rows),
// and the StochasticPlan that takes those rows over. GC is paused so pool
// evictions cannot flake the count. Under the race detector a solve may also miss the DP
// workspace pool and make the workspace, its three rows and its memo
// slots, so there the bound is that of a solve with no pool.
func TestSolveSRRPAllocations(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	limit := 7.0
	if raceEnabled {
		limit = 12
	}
	tr, err := scenario.Build(baseDist(), constants(5, 0.061), 0.2, scenario.BuildConfig{
		Stages: 5, MaxBranch: 4, RootPrice: 0.06,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.N() != 1365 {
		t.Fatalf("N = %d, want 1365", tr.N())
	}
	par := DefaultParams(market.M1Large)
	dem := []float64{0.4, 0.5, 0.3, 0.6, 0.2, 0.45}
	ctx := context.Background()
	if _, err := SolveSRRPCtx(ctx, par, tr, dem); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() { _, _ = SolveSRRPCtx(ctx, par, tr, dem) })
	if allocs > limit {
		t.Fatalf("%v allocations per solve, want at most %v", allocs, limit)
	}
}
