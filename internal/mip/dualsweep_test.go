package mip

import (
	"math"
	"math/rand"
	"testing"
)

// TestDualEtaAgreementSweep is the branch-and-bound-level agreement check
// for the dual simplex and its eta-file updates: every corpus instance must
// prove the enumerated optimum with workers {1,4}, the dual path must
// engage somewhere in the corpus, and every dual-repaired node's pivots
// must be accounted with eta-file updates.
func TestDualEtaAgreementSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(1212))
	corpus := []*Problem{
		knapsackInstance(rng, 14),
		knapsackInstance(rng, 18),
		lotSizingInstance(rng, 5),
		lotSizingInstance(rng, 7),
	}
	totalDualNodes := int64(0)
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
				t.Fatalf("instance %d workers=%d: obj %.12f, reference %.12f", pi, workers, sol.Obj, ref)
			}
			checkWarmAccounting(t, sol.Stats)
			if sol.Stats.DualIters > sol.Stats.SimplexIters {
				t.Fatalf("instance %d: DualIters %d exceeds SimplexIters %d",
					pi, sol.Stats.DualIters, sol.Stats.SimplexIters)
			}
			if sol.Stats.WarmDuals > 0 && sol.Stats.EtaCount == 0 {
				t.Fatalf("instance %d: %d dual nodes recorded no eta updates",
					pi, sol.Stats.WarmDuals)
			}
			totalDualNodes += sol.Stats.WarmDuals
		}
	}
	if totalDualNodes == 0 {
		t.Fatal("the dual path never engaged anywhere in the corpus sweep")
	}
	t.Logf("dual-repaired nodes across the sweep: %d", totalDualNodes)
}
