package core

import (
	"math"
	"testing"

	"rentplan/internal/benders"
	"rentplan/internal/lp"
	"rentplan/internal/market"
	"rentplan/internal/scenario"
)

func twoStageTree(t *testing.T, bid float64) *scenario.Tree {
	t.Helper()
	tr, err := scenario.Build(baseDist(), []float64{bid}, 0.2, scenario.BuildConfig{
		Stages:    1,
		RootPrice: 0.06,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestLShapedMatchesExtensiveFormAndBoundsMILP(t *testing.T) {
	par := DefaultParams(market.C1Medium)
	par.Epsilon = 0.1
	tree := twoStageTree(t, 0.060)
	dem := []float64{0.4, 0.5}

	p, err := BuildSRRPTwoStage(par, tree, dem)
	if err != nil {
		t.Fatal(err)
	}
	// L-shaped vs the stacked extensive form LP.
	res, err := benders.Solve(p, benders.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("no convergence after %d iterations", res.Iterations)
	}
	ext, err := benders.ExtensiveForm(p)
	if err != nil {
		t.Fatal(err)
	}
	esol, err := lp.Solve(ext)
	if err != nil || esol.Status != lp.StatusOptimal {
		t.Fatalf("extensive form: %v %v", esol, err)
	}
	if math.Abs(res.Obj-esol.Obj) > 1e-6 {
		t.Fatalf("L-shaped %v != extensive %v", res.Obj, esol.Obj)
	}
	// The relaxation bounds the exact (integer) SRRP optimum from below,
	// up to the transfer-out constant the LP omits.
	exact, err := SolveSRRP(par, tree, dem)
	if err != nil {
		t.Fatal(err)
	}
	transferOut := par.Pricing.TransferOutPerGB * (dem[0] + dem[1])
	if res.Obj > exact.ExpCost-transferOut+1e-9 {
		t.Fatalf("LP relaxation %v exceeds exact variable cost %v",
			res.Obj, exact.ExpCost-transferOut)
	}
}

// TestSolveSRRPTwoStageLShapedWrapper drives the L-shaped ablation's path:
// the SRRP two-stage wrapper problem (BuildSRRPTwoStage) solved by
// benders.Solve.
func TestSolveSRRPTwoStageLShapedWrapper(t *testing.T) {
	par := DefaultParams(market.C1Medium)
	tree := twoStageTree(t, 0.058)
	p, err := BuildSRRPTwoStage(par, tree, []float64{0.4, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := benders.Solve(p, benders.Options{MultiCut: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Obj <= 0 {
		t.Fatalf("bad result %+v", res)
	}
	// First-stage α₀ + ε must cover the root demand.
	if res.X[0]+par.Epsilon < 0.4-1e-6 {
		t.Fatalf("first stage under-produces: %v", res.X)
	}
}

func TestBuildSRRPTwoStageErrors(t *testing.T) {
	par := DefaultParams(market.C1Medium)
	deep := srrpTree(t, 3, 0.06)
	if _, err := BuildSRRPTwoStage(par, deep, []float64{1, 1}); err == nil {
		t.Fatal("want stage-count error")
	}
	two := twoStageTree(t, 0.06)
	if _, err := BuildSRRPTwoStage(par, two, []float64{1}); err == nil {
		t.Fatal("want demand-length error")
	}
	capPar := par
	capPar.ConsumptionRate = 1
	capPar.Capacity = []float64{1, 1}
	if _, err := BuildSRRPTwoStage(capPar, two, []float64{1, 1}); err == nil {
		t.Fatal("want capacitated error")
	}
}

func TestNestedLShapedBoundsSRRP(t *testing.T) {
	par := DefaultParams(market.C1Medium)
	par.Epsilon = 0.2
	tree := srrpTree(t, 4, 0.060)
	dem := []float64{0.4, 0.5, 0.3, 0.6, 0.4}
	res, bound, err := SolveSRRPNestedLShaped(par, tree, dem, benders.NestedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("no convergence in %d iterations", res.Iterations)
	}
	exact, err := SolveSRRP(par, tree, dem)
	if err != nil {
		t.Fatal(err)
	}
	if bound > exact.ExpCost+1e-6 {
		t.Fatalf("nested bound %v exceeds exact %v", bound, exact.ExpCost)
	}
	// The lot-sizing relaxation with tight forcing bounds is strong: the
	// bound should land within a few percent of the integer optimum.
	if bound < 0.8*exact.ExpCost {
		t.Fatalf("nested bound %v surprisingly loose vs exact %v", bound, exact.ExpCost)
	}
	// Root decisions are within their boxes.
	if res.RootChi < -1e-9 || res.RootChi > 1+1e-9 || res.RootAlpha < -1e-9 {
		t.Fatalf("bad root decisions %+v", res)
	}
}

func TestNestedLShapedErrors(t *testing.T) {
	par := DefaultParams(market.C1Medium)
	tree := srrpTree(t, 2, 0.06)
	if _, _, err := SolveSRRPNestedLShaped(par, tree, []float64{1}, benders.NestedOptions{}); err == nil {
		t.Fatal("want demand mismatch error")
	}
	capPar := par
	capPar.ConsumptionRate = 1
	capPar.Capacity = []float64{1, 1, 1}
	if _, _, err := SolveSRRPNestedLShaped(capPar, tree, []float64{1, 1, 1}, benders.NestedOptions{}); err == nil {
		t.Fatal("want capacitated error")
	}
}
