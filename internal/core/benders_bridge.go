package core

import (
	"context"
	"errors"
	"fmt"

	"rentplan/internal/benders"
	"rentplan/internal/lotsize"
	"rentplan/internal/lp"
	"rentplan/internal/scenario"
)

// BuildSRRPTwoStage converts the LP relaxation of a two-stage SRRP (a
// scenario tree with exactly one future stage) into a benders.Problem, so
// the L-shaped method — the decomposition technique the paper cites for
// multistage recourse programs — can solve it scenario by scenario.
//
// First-stage variables: x = (α₀, β₀, χ₀) with χ₀ relaxed to [0,1].
// Per-scenario second stage: y = (α_v, β_v, χ_v) with rows
//
//	β₀ + α_v − β_v = D₁       (balance, couples the first stage)
//	α_v − B·χ_v ≤ 0           (forcing)
//	χ_v ≤ 1                   (relaxed integrality)
//
// The relaxation's optimum is a valid lower bound on the SRRP optimum and
// is tight whenever the LP relaxation is integral.
func BuildSRRPTwoStage(par Params, tree *scenario.Tree, dem []float64) (*benders.Problem, error) {
	if err := par.validate(); err != nil {
		return nil, err
	}
	if err := tree.Validate(); err != nil {
		return nil, err
	}
	if tree.Stages() != 2 {
		return nil, fmt.Errorf("core: two-stage builder needs a 2-stage tree, got %d stages", tree.Stages())
	}
	if len(dem) != 2 {
		return nil, errors.New("core: need exactly two stage demands")
	}
	if par.Capacitated() {
		return nil, errors.New("core: capacitated two-stage decomposition not supported")
	}
	bigB := par.Epsilon + dem[0] + dem[1]
	if bigB <= 0 {
		bigB = 1
	}
	unit := par.UnitGenCost()
	hold := par.HoldingCost()

	p := &benders.Problem{
		// x = (α₀, β₀, χ₀).
		C:     []float64{unit, hold, tree.Price[0]},
		Lower: []float64{0, 0, 0},
		Upper: []float64{bigB, bigB, 1},
		// Balance at the root: α₀ − β₀ = D₀ − ε.
		A:   [][]float64{{1, -1, 0}, {1, 0, -bigB}},
		Rel: []lp.Rel{lp.EQ, lp.LE},
		B:   []float64{dem[0] - par.Epsilon, 0},
	}
	for v := 1; v < tree.N(); v++ {
		if tree.Stage[v] != 1 {
			continue
		}
		sc := benders.Scenario{
			Prob: tree.Prob[v],
			// y = (α_v, β_v, χ_v).
			Q: []float64{unit, hold, tree.Price[v]},
			W: [][]float64{
				{1, -1, 0},    // + β₀ (via T) = D₁
				{1, 0, -bigB}, // forcing
				{-1, 0, 0},    // −α_v ≥ −B  (keeps recourse bounded)
				{0, -1, 0},    // −β_v ≥ −B
				{0, 0, -1},    // −χ_v ≥ −1  (χ ≤ 1)
			},
			Rel: []lp.Rel{lp.EQ, lp.LE, lp.GE, lp.GE, lp.GE},
			H:   []float64{dem[1], 0, -bigB, -bigB, -1},
			T: [][]float64{
				{0, 1, 0}, // β₀ carries into the balance: β₀ + α_v − β_v = D₁
				{0, 0, 0},
				{0, 0, 0},
				{0, 0, 0},
				{0, 0, 0},
			},
		}
		p.Scenarios = append(p.Scenarios, sc)
	}
	if len(p.Scenarios) == 0 {
		return nil, errors.New("core: tree has no stage-1 vertices")
	}
	return p, nil
}

// SolveSRRPNestedLShaped solves the multistage LP relaxation of an SRRP
// scenario tree by the nested L-shaped method (Birge's algorithm, the
// paper's reference [28]). The returned Bound plus the transfer-out
// constant is a lower bound on the exact SRRP expected cost; tests verify
// it against the exact tree DP and the extensive-form LP.
func SolveSRRPNestedLShaped(par Params, tree *scenario.Tree, dem []float64, opts benders.NestedOptions) (*benders.NestedResult, float64, error) {
	return SolveSRRPNestedLShapedCtx(context.Background(), par, tree, dem, opts)
}

// SolveSRRPNestedLShapedCtx is SolveSRRPNestedLShaped under a context,
// threading ctx through every vertex LP of the nested sweeps. A background
// context is bit-identical to SolveSRRPNestedLShaped.
func SolveSRRPNestedLShapedCtx(ctx context.Context, par Params, tree *scenario.Tree, dem []float64, opts benders.NestedOptions) (*benders.NestedResult, float64, error) {
	if err := par.validate(); err != nil {
		return nil, 0, err
	}
	if err := tree.Validate(); err != nil {
		return nil, 0, err
	}
	if len(dem) != tree.Stages() {
		return nil, 0, errors.New("core: demand/stage mismatch")
	}
	if par.Capacitated() {
		return nil, 0, errors.New("core: capacitated nested decomposition not supported")
	}
	n := tree.N()
	tp := &lotsize.TreeProblem{
		Parent:           tree.Parent,
		Prob:             tree.Prob,
		Setup:            tree.Price,
		Unit:             constants(n, par.UnitGenCost()),
		Hold:             constants(n, par.HoldingCost()),
		Demand:           make([]float64, n),
		InitialInventory: par.Epsilon,
	}
	for v := 0; v < n; v++ {
		tp.Demand[v] = dem[tree.Stage[v]]
	}
	res, err := benders.SolveTreeLPCtx(ctx, tp, opts)
	if err != nil {
		return nil, 0, err
	}
	transferOut := 0.0
	for _, d := range dem {
		transferOut += par.Pricing.TransferOutPerGB * d
	}
	return res, res.Bound + transferOut, nil
}
