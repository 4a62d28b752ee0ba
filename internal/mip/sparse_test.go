package mip

import (
	"math"
	"math/rand"
	"testing"
)

// TestSparsePricingAgreement runs the MILP corpus with workers={1,4} and
// requires the enumerated optimum from each, with pricing counters that
// are consistent: the constraint matrix's nonzero count, and at least one
// full pricing sweep whenever the node LPs pivot.
func TestSparsePricingAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(271))
	corpus := []*Problem{
		knapsackInstance(rng, 14),
		knapsackInstance(rng, 18),
		lotSizingInstance(rng, 5),
		lotSizingInstance(rng, 7),
	}
	for pi, p := range corpus {
		ref := referenceOptimum(t, p)
		for _, workers := range []int{1, 4} {
			sol, err := SolveWithOptions(p, Options{Workers: workers})
			if err != nil {
				t.Fatalf("instance %d workers=%d: %v", pi, workers, err)
			}
			if sol.Status != StatusOptimal {
				t.Fatalf("instance %d workers=%d: status %v", pi, workers, sol.Status)
			}
			if math.Abs(sol.Obj-ref) > 1e-6 {
				t.Fatalf("instance %d workers=%d: obj %.9f, reference %.9f", pi, workers, sol.Obj, ref)
			}
			if sol.Stats.NNZ == 0 || sol.Stats.NNZ != p.LP.NNZ() {
				t.Fatalf("instance %d: NNZ %d, problem has %d", pi, sol.Stats.NNZ, p.LP.NNZ())
			}
			if sol.Stats.PricingSweeps == 0 && sol.Stats.SimplexIters > 0 {
				t.Fatalf("instance %d workers=%d: no pricing sweeps for %d pivots",
					pi, workers, sol.Stats.SimplexIters)
			}
		}
	}
}

// TestCandidatePricingReducesSweeps pins the payoff: on a branching-heavy
// instance the candidate list must serve pivots without a full sweep, so
// the node LPs sweep fewer times than they pivot.
func TestCandidatePricingReducesSweeps(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	p := lotSizingInstance(rng, 8)
	cand, err := SolveWithOptions(p, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cand.Status != StatusOptimal {
		t.Fatalf("status %v", cand.Status)
	}
	if ref := referenceOptimum(t, p); math.Abs(cand.Obj-ref) > 1e-6 {
		t.Fatalf("objective %.9f, reference %.9f", cand.Obj, ref)
	}
	if cand.Stats.CandidateHits == 0 {
		t.Fatalf("candidate list never used: %+v", cand.Stats)
	}
	if cand.Stats.PricingSweeps >= cand.Stats.SimplexIters {
		t.Fatalf("%d sweeps for %d pivots", cand.Stats.PricingSweeps, cand.Stats.SimplexIters)
	}
	t.Logf("sweeps %d (hits %d) over %d pivots",
		cand.Stats.PricingSweeps, cand.Stats.CandidateHits, cand.Stats.SimplexIters)
}
