package mip

import (
	"math"
	"math/rand"
	"testing"

	"rentplan/internal/lp"
)

// checkWarmAccounting asserts the Stats dispatch invariant: every solved
// node is counted in exactly one warm/cold class, and the iteration split
// covers all simplex pivots.
func checkWarmAccounting(t *testing.T, st Stats) {
	t.Helper()
	total := st.WarmHits + st.WarmMisses + st.WarmDuals + st.WarmFallbacks + st.ColdNodes
	if total != int64(st.Nodes) {
		t.Fatalf("warm accounting: hits %d + misses %d + duals %d + fallbacks %d + cold %d = %d, want Nodes = %d",
			st.WarmHits, st.WarmMisses, st.WarmDuals, st.WarmFallbacks, st.ColdNodes, total, st.Nodes)
	}
	if st.WarmIters+st.ColdIters != st.SimplexIters {
		t.Fatalf("iteration accounting: warm %d + cold %d != total %d",
			st.WarmIters, st.ColdIters, st.SimplexIters)
	}
}

// TestWarmVsColdAgreement runs the MILP corpus with warm-started node
// solves across workers={1,4} and requires the optimum of the enumeration
// oracle (referenceOptimum), with the warm start engaged.
func TestWarmVsColdAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(314))
	corpus := []*Problem{
		knapsackInstance(rng, 14),
		knapsackInstance(rng, 20),
		lotSizingInstance(rng, 5),
		lotSizingInstance(rng, 7),
	}
	for pi, p := range corpus {
		ref := referenceOptimum(t, p)
		for _, workers := range []int{1, 4} {
			warmSol, err := SolveWithOptions(p, Options{Workers: workers})
			if err != nil {
				t.Fatalf("instance %d workers %d: %v", pi, workers, err)
			}
			if warmSol.Status != StatusOptimal {
				t.Fatalf("instance %d workers %d: status %v", pi, workers, warmSol.Status)
			}
			if math.Abs(warmSol.Obj-ref) > 1e-6 {
				t.Fatalf("instance %d workers %d: warm obj %.9f, reference %.9f",
					pi, workers, warmSol.Obj, ref)
			}
			checkWarmAccounting(t, warmSol.Stats)
			if warmSol.Stats.WarmHits+warmSol.Stats.WarmMisses+warmSol.Stats.WarmDuals == 0 && warmSol.Stats.Nodes > 1 {
				t.Fatalf("instance %d workers %d: warm start never engaged: %+v", pi, workers, warmSol.Stats)
			}
		}
	}
}

// TestWarmStartReducesIterations pins the point of the whole exercise: on a
// branching-heavy instance the warm-started nodes must average fewer
// simplex pivots than the cold root solve, while the search proves the
// enumerated optimum.
func TestWarmStartReducesIterations(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	p := lotSizingInstance(rng, 8)
	warm, err := SolveWithOptions(p, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != StatusOptimal {
		t.Fatalf("status %v", warm.Status)
	}
	if ref := referenceOptimum(t, p); math.Abs(warm.Obj-ref) > 1e-6 {
		t.Fatalf("objective %.9f, reference %.9f", warm.Obj, ref)
	}
	st := warm.Stats
	if st.ColdNodes != 1 {
		t.Fatalf("%d cold nodes, want exactly the root", st.ColdNodes)
	}
	warmNodes := st.WarmHits + st.WarmMisses + st.WarmDuals + st.WarmFallbacks
	if warmNodes == 0 {
		t.Fatalf("no warm-started node: %+v", st)
	}
	perWarm := float64(st.WarmIters) / float64(warmNodes)
	if perWarm >= float64(st.ColdIters) {
		t.Fatalf("warm nodes average %.1f pivots, the cold root took %d (stats %+v)", perWarm, st.ColdIters, st)
	}
	t.Logf("pivots: %.1f per warm node vs %d for the cold root; hits=%d misses=%d duals=%d fallbacks=%d",
		perWarm, st.ColdIters, st.WarmHits, st.WarmMisses, st.WarmDuals, st.WarmFallbacks)
}

// TestCustomLPTolReachesNodes pins the options-resolution bugfix: a caller-
// supplied LP tolerance must actually reach the node solves instead of being
// replaced by the default during per-node re-resolution. A deliberately
// absurd tolerance makes the node simplex accept its starting rest point as
// "optimal", which is observable as an objective of zero on a knapsack whose
// true optimum is strictly negative.
func TestCustomLPTolReachesNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := knapsackInstance(rng, 12)
	if ref := referenceOptimum(t, p); ref >= 0 {
		t.Fatalf("reference optimum %v, want negative", ref)
	}
	loose, err := SolveWithOptions(p, Options{Workers: 1, LP: lp.Options{Tol: 1e6}})
	if err != nil {
		t.Fatal(err)
	}
	if loose.Status != StatusOptimal || loose.Obj != 0 {
		t.Fatalf("loose-tolerance solve status %v obj %v, want the rest-point objective 0 — the custom Tol did not reach the node solves",
			loose.Status, loose.Obj)
	}
}

// TestNodeIterLimitNoFalseOptimality pins the StatusIterLimit bugfix: when a
// node LP dies at a tiny MaxIter its subtree's bound is unknown, so the
// search must report a limit with an honest (infinite) bound — never a
// "proven" infeasibility or optimality claim built on the lost subtree.
func TestNodeIterLimitNoFalseOptimality(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := knapsackInstance(rng, 12)
	sol, err := SolveWithOptions(p, Options{Workers: 1, LP: lp.Options{MaxIter: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// The root (and every node) LP hits the 1-pivot limit, so nothing was
	// proven: not optimality, not infeasibility.
	if sol.Status == StatusOptimal || sol.Status == StatusInfeasible {
		t.Fatalf("status %v claims a proof, but every node LP hit its iteration limit", sol.Status)
	}
	if !math.IsInf(sol.Bound, -1) {
		t.Fatalf("bound %v, want -Inf: the lost root subtree admits no finite bound claim", sol.Bound)
	}
	if sol.Stats.Nodes > 0 && sol.Stats.SimplexIters == 0 {
		t.Fatalf("MaxIter=1 did not reach the node solves: %+v", sol.Stats)
	}
}

// TestWorkersAgreementWarm extends the workers-agreement property to the
// warm-started search: the proven optimum must be identical for every worker
// count, with warm starts enabled (the default).
func TestWorkersAgreementWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	for trial := 0; trial < 6; trial++ {
		var p *Problem
		if trial%2 == 0 {
			p = knapsackInstance(rng, 12+trial)
		} else {
			p = lotSizingInstance(rng, 4+trial)
		}
		ref, err := SolveWithOptions(p, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		sol4, err := SolveWithOptions(p, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if ref.Status != sol4.Status {
			t.Fatalf("trial %d: status %v (1 worker) vs %v (4 workers)", trial, ref.Status, sol4.Status)
		}
		if ref.Status == StatusOptimal && math.Abs(ref.Obj-sol4.Obj) > 1e-6 {
			t.Fatalf("trial %d: obj %.9f (1 worker) vs %.9f (4 workers)", trial, ref.Obj, sol4.Obj)
		}
		checkWarmAccounting(t, ref.Stats)
		checkWarmAccounting(t, sol4.Stats)
	}
}

// TestRootBasisReuse pins the cross-solve root warm start: a second solve of
// the same problem fed the first solve's RootBasis must prove the identical
// optimum with its root relaxation dispatched warm (no cold node anywhere in
// the tree), and a structurally mismatched basis must fall back to the
// bit-identical cold root rather than corrupt the solve.
func TestRootBasisReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	p := lotSizingInstance(rng, 7)
	first, err := SolveWithOptions(p, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if first.Status != StatusOptimal {
		t.Fatalf("first status %v", first.Status)
	}
	if ref := referenceOptimum(t, p); math.Abs(first.Obj-ref) > 1e-6 {
		t.Fatalf("first obj %.12f, reference %.12f", first.Obj, ref)
	}
	if first.RootBasis == nil {
		t.Fatal("first solve published no RootBasis")
	}
	if first.Stats.ColdNodes != 1 {
		t.Fatalf("first solve: %d cold nodes, want exactly the root", first.Stats.ColdNodes)
	}

	second, err := SolveWithOptions(p, Options{Workers: 1, RootBasis: first.RootBasis})
	if err != nil {
		t.Fatal(err)
	}
	if second.Status != StatusOptimal || second.Obj != first.Obj {
		t.Fatalf("warm-root solve: status %v obj %.12f, want optimal %.12f", second.Status, second.Obj, first.Obj)
	}
	if second.Stats.ColdNodes != 0 {
		t.Fatalf("warm-root solve still dispatched %d cold nodes: %+v", second.Stats.ColdNodes, second.Stats)
	}
	if second.RootBasis == nil {
		t.Fatal("warm-root solve republished no RootBasis")
	}
	checkWarmAccounting(t, second.Stats)

	// A basis from an unrelated, differently-sized problem must be rejected
	// by the warm dispatch and fall back to the cold path with the same
	// proven optimum.
	other, err := SolveWithOptions(knapsackInstance(rng, 9), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	stale, err := SolveWithOptions(p, Options{Workers: 1, RootBasis: other.RootBasis})
	if err != nil {
		t.Fatal(err)
	}
	if stale.Status != StatusOptimal || stale.Obj != first.Obj {
		t.Fatalf("stale-basis solve: status %v obj %.12f, want optimal %.12f", stale.Status, stale.Obj, first.Obj)
	}
	checkWarmAccounting(t, stale.Stats)
}
