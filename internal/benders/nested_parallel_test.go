package benders

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"rentplan/internal/lotsize"
	"rentplan/internal/lp"
)

// TestNestedParallelAgreementFuzz pins the determinism contract of the
// parallel passes: every worker count must reproduce the serial run
// bit-for-bit — bounds, decisions, and every cut/solve counter.
func TestNestedParallelAgreementFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	shapes := [][]int{{2}, {3, 2}, {2, 2, 2}, {4, 3}, {2, 3, 2}}
	for trial := 0; trial < 12; trial++ {
		shape := shapes[trial%len(shapes)]
		eps := 0.0
		if trial%3 == 2 {
			eps = rng.Float64()
		}
		tp := randomTreeProblem(rng, shape, eps)
		var ref *NestedResult
		for _, workers := range []int{1, 4, 8} {
			res, err := SolveTreeLP(tp, NestedOptions{Workers: workers})
			if err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}
			if workers == 1 {
				ref = res
				if !res.Converged {
					t.Fatalf("trial %d: serial run did not converge (gap %v)", trial, res.Cost-res.Bound)
				}
				continue
			}
			if *res != *ref {
				t.Fatalf("trial %d workers %d: result diverged from serial\n got %+v\nwant %+v",
					trial, workers, res, ref)
			}
		}
	}
}

// TestNestedParallelMatchesExtensive re-runs the extensive-form check with
// multiple workers and a tiny warehouse, exercising eviction (version
// bumps force cold re-solves) without losing correctness.
func TestNestedParallelMatchesExtensive(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 6; trial++ {
		tp := randomTreeProblem(rng, []int{3, 2, 2}, 0)
		res, err := SolveTreeLP(tp, NestedOptions{Workers: 4, WarehouseCap: 3})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !res.Converged {
			t.Fatalf("trial %d: no convergence with a tiny warehouse (gap %v)", trial, res.Cost-res.Bound)
		}
		if res.CutsEvicted == 0 {
			t.Fatalf("trial %d: cap 3 run never evicted, the aging path was not exercised", trial)
		}
		ext := treeLPRelaxation(tp)
		esol, err := lp.Solve(ext)
		if err != nil || esol.Status != lp.StatusOptimal {
			t.Fatalf("trial %d: extensive: %v %v", trial, esol, err)
		}
		if math.Abs(res.Bound-esol.Obj) > 1e-5*(1+math.Abs(esol.Obj)) {
			t.Fatalf("trial %d: nested %v != extensive %v", trial, res.Bound, esol.Obj)
		}
	}
}

// TestNestedWarmStartStatsAndAgreement checks that warm starts and the
// backward memo actually fire, and leave the bound equal to the extensive
// tree LP's optimum.
func TestNestedWarmStartStatsAndAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	tp := randomTreeProblem(rng, []int{3, 2, 2}, 0.3)
	warm, err := SolveTreeLP(tp, NestedOptions{})
	if err != nil || !warm.Converged {
		t.Fatalf("warm: %v %+v", err, warm)
	}
	esol, err := lp.Solve(treeLPRelaxation(tp))
	if err != nil || esol.Status != lp.StatusOptimal {
		t.Fatalf("extensive: %v %v", esol, err)
	}
	if math.Abs(warm.Bound-esol.Obj) > 1e-5*(1+math.Abs(esol.Obj)) {
		t.Fatalf("warm bound %v, extensive %v", warm.Bound, esol.Obj)
	}
	if warm.WarmSolves == 0 {
		t.Fatal("warm run never reused a basis")
	}
	if warm.MemoHits == 0 {
		t.Fatal("warm run never served a backward solve from the memo")
	}
}

func TestNestedCancelMidForwardPass(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	tp := randomTreeProblem(rng, []int{3, 2, 2}, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	nestedHookForward = func(iter, stage int) {
		if iter == 2 && stage == 1 {
			cancel()
		}
	}
	defer func() { nestedHookForward = nil }()
	res, err := SolveTreeLPCtx(ctx, tp, NestedOptions{Workers: 4})
	if err == nil || res != nil {
		t.Fatalf("mid-forward cancellation returned %+v, %v", res, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
	if !strings.Contains(err.Error(), "forward stage 1") {
		t.Fatalf("error does not locate the canceled stage: %v", err)
	}
}

func TestNestedCancelMidBackwardPass(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	tp := randomTreeProblem(rng, []int{3, 2, 2}, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fired := false
	nestedHookBackward = func(iter, stage int) {
		if !fired {
			fired = true
			cancel()
		}
	}
	defer func() { nestedHookBackward = nil }()
	res, err := SolveTreeLPCtx(ctx, tp, NestedOptions{Workers: 4})
	if !fired {
		t.Fatal("backward pass never ran")
	}
	if err == nil || res != nil {
		t.Fatalf("mid-backward cancellation returned %+v, %v", res, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
	if !strings.Contains(err.Error(), "backward stage") {
		t.Fatalf("error does not locate the canceled stage: %v", err)
	}
}

// TestValidateTreeRejectsBadData is the table-driven sweep over the data
// classes validateTree must reject: non-finite or negative coefficients,
// out-of-range probabilities, and slice mismatches.
func TestValidateTreeRejectsBadData(t *testing.T) {
	base := func() *lotsize.TreeProblem {
		return &lotsize.TreeProblem{
			Parent:           []int{-1, 0, 0},
			Prob:             []float64{1, 0.5, 0.5},
			Setup:            []float64{1, 1, 1},
			Unit:             []float64{0.1, 0.1, 0.1},
			Hold:             []float64{0.2, 0.2, 0.2},
			Demand:           []float64{1, 2, 3},
			InitialInventory: 0.5,
		}
	}
	if err := validateTree(base()); err != nil {
		t.Fatalf("valid base rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(tp *lotsize.TreeProblem)
		want   string
	}{
		{"nan demand", func(tp *lotsize.TreeProblem) { tp.Demand[1] = math.NaN() }, "demand"},
		{"inf demand", func(tp *lotsize.TreeProblem) { tp.Demand[2] = math.Inf(1) }, "demand"},
		{"negative demand", func(tp *lotsize.TreeProblem) { tp.Demand[0] = -1 }, "demand"},
		{"nan setup", func(tp *lotsize.TreeProblem) { tp.Setup[0] = math.NaN() }, "setup"},
		{"inf setup", func(tp *lotsize.TreeProblem) { tp.Setup[2] = math.Inf(1) }, "setup"},
		{"negative unit", func(tp *lotsize.TreeProblem) { tp.Unit[1] = -0.1 }, "unit"},
		{"inf unit", func(tp *lotsize.TreeProblem) { tp.Unit[1] = math.Inf(-1) }, "unit"},
		{"nan hold", func(tp *lotsize.TreeProblem) { tp.Hold[2] = math.NaN() }, "holding"},
		{"zero prob", func(tp *lotsize.TreeProblem) { tp.Prob[2] = 0 }, "probability"},
		{"negative prob", func(tp *lotsize.TreeProblem) { tp.Prob[1] = -0.5 }, "probability"},
		{"nan prob", func(tp *lotsize.TreeProblem) { tp.Prob[1] = math.NaN() }, "probability"},
		{"inf prob", func(tp *lotsize.TreeProblem) { tp.Prob[1] = math.Inf(1) }, "probability"},
		{"prob above one", func(tp *lotsize.TreeProblem) { tp.Prob[1] = 1.5 }, "probability"},
		{"short prob", func(tp *lotsize.TreeProblem) { tp.Prob = tp.Prob[:2] }, "mismatch"},
		{"short setup", func(tp *lotsize.TreeProblem) { tp.Setup = tp.Setup[:2] }, "mismatch"},
		{"short unit", func(tp *lotsize.TreeProblem) { tp.Unit = tp.Unit[:1] }, "mismatch"},
		{"short hold", func(tp *lotsize.TreeProblem) { tp.Hold = tp.Hold[:2] }, "mismatch"},
		{"short demand", func(tp *lotsize.TreeProblem) { tp.Demand = tp.Demand[:2] }, "mismatch"},
		{"negative inventory", func(tp *lotsize.TreeProblem) { tp.InitialInventory = -1 }, "inventory"},
		{"nan inventory", func(tp *lotsize.TreeProblem) { tp.InitialInventory = math.NaN() }, "inventory"},
		{"inf inventory", func(tp *lotsize.TreeProblem) { tp.InitialInventory = math.Inf(1) }, "inventory"},
		{"bad root", func(tp *lotsize.TreeProblem) { tp.Parent[0] = 0 }, "root"},
		{"non-topological parent", func(tp *lotsize.TreeProblem) { tp.Parent[1] = 2 }, "topological"},
	}
	for _, c := range cases {
		tp := base()
		c.mutate(tp)
		err := validateTree(tp)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
		// The public entry point must reject the same instance.
		if _, serr := SolveTreeLP(tp, NestedOptions{}); serr == nil {
			t.Errorf("%s: SolveTreeLP accepted", c.name)
		}
	}
}
