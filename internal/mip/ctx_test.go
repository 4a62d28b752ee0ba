package mip

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"rentplan/internal/lp"
)

// denseMIP builds a feasible all-integer problem whose root relaxation is an
// expensive dense LP: n variables, n coupling rows.
func denseMIP(rng *rand.Rand, n int) *Problem {
	p := &Problem{
		LP: &lp.Problem{
			C:     make([]float64, n),
			Lower: make([]float64, n),
			Upper: make([]float64, n),
		},
		Integer: make([]bool, n),
	}
	for j := 0; j < n; j++ {
		p.LP.C[j] = -(1 + rng.Float64())
		p.LP.Upper[j] = 1
		p.Integer[j] = true
	}
	for i := 0; i < n; i++ {
		row := make([]float64, n)
		s := 0.0
		for j := 0; j < n; j++ {
			row[j] = rng.Float64()
			s += row[j]
		}
		p.LP.AddRow(row, lp.LE, s/3)
	}
	return p
}

// TestTimeLimitBoundsNodeLP is the regression test for the time-limit
// overshoot bug: the deadline used to be checked only between nodes, so a
// solve could not return before its current node LP ran to completion — on a
// problem with an expensive root relaxation the overshoot was the entire
// root LP. The limit is now threaded into every node LP as a context
// deadline, so the recorded Elapsed must come in well under the duration of
// the root relaxation alone. Wall-clock facts come exclusively from
// Stats.Elapsed (the solver's sanctioned clock).
func TestTimeLimitBoundsNodeLP(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	// The instance must be large enough that the root LP dwarfs the worst-case
	// context-expiry latency: on GOMAXPROCS=1 the deadline timer's callback can
	// be starved by the pivot loop until the runtime's ~10ms async preemption
	// tick, so the root-LP floor needs a wide margin above that.
	p := denseMIP(rng, 230)
	// Root relaxation time: one node, no time limit.
	root, err := SolveWithOptions(p, Options{MaxNodes: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rootElapsed := root.Stats.Elapsed
	if rootElapsed < 30*time.Millisecond {
		t.Skipf("root LP too fast to measure overshoot robustly (%v)", rootElapsed)
	}
	limit := rootElapsed / 10
	sol, err := SolveWithOptions(p, Options{TimeLimit: limit, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status == StatusOptimal {
		t.Fatalf("claimed optimality under a %v limit (root LP alone takes %v)", limit, rootElapsed)
	}
	// The old code could not stop before the root LP finished, i.e. its
	// Elapsed was always ≥ rootElapsed. Allow generous scheduling slack but
	// stay strictly below the old lower bound.
	if sol.Stats.Elapsed >= rootElapsed {
		t.Fatalf("time-limited solve took %v, at least the full root LP (%v): the deadline did not reach the node LP",
			sol.Stats.Elapsed, rootElapsed)
	}
}

func TestSolveCtxUpfrontCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	p := denseMIP(rng, 20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, err := SolveCtx(ctx, p, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusCanceled {
		t.Fatalf("status = %v, want %v", sol.Status, StatusCanceled)
	}
	if sol.X != nil {
		t.Fatalf("canceled-before-start solve exported X")
	}
}

func TestSolveCtxBackgroundMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 5; trial++ {
		p := denseMIP(rng, 10+trial)
		want, err := SolveWithOptions(p, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		got, err := SolveCtx(context.Background(), p, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != want.Status || got.Obj != want.Obj || got.Nodes != want.Nodes {
			t.Fatalf("trial %d: SolveCtx(Background) = (%v, %v, %d nodes), Solve = (%v, %v, %d nodes)",
				trial, got.Status, got.Obj, got.Nodes, want.Status, want.Obj, want.Nodes)
		}
	}
}

// TestCancellationFuzz drives random MILPs through mid-search cancellation
// and asserts the status contract: a canceled solve never claims optimality
// it cannot prove, its Bound stays a valid lower bound on the true optimum,
// and any exported incumbent is genuinely integer-feasible with an objective
// no better than the true optimum.
func TestCancellationFuzz(t *testing.T) {
	const tol = 1e-6
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := denseMIP(rng, 12+int(seed%5))
		exact, err := SolveWithOptions(p, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if exact.Status != StatusOptimal {
			t.Fatalf("seed %d: exact solve status %v", seed, exact.Status)
		}
		trueOpt := exact.Obj

		// Cancel as soon as the search reports its first incumbent.
		ctx, cancel := context.WithCancel(context.Background())
		sol, err := SolveCtx(ctx, p, Options{
			Workers: 1,
			Progress: func(st Stats) {
				if st.HasIncumbent {
					cancel()
				}
			},
		})
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		switch sol.Status {
		case StatusOptimal:
			// The gap may close before the cancellation lands; the claim
			// must then be genuine.
			if math.Abs(sol.Obj-trueOpt) > tol*(1+math.Abs(trueOpt)) {
				t.Fatalf("seed %d: claimed optimum %v but true optimum is %v", seed, sol.Obj, trueOpt)
			}
		case StatusCanceled:
			if sol.Bound > trueOpt+tol*(1+math.Abs(trueOpt)) {
				t.Fatalf("seed %d: canceled Bound %v exceeds true optimum %v", seed, sol.Bound, trueOpt)
			}
			if sol.X != nil {
				if sol.Obj < trueOpt-tol*(1+math.Abs(trueOpt)) {
					t.Fatalf("seed %d: canceled incumbent %v beats true optimum %v", seed, sol.Obj, trueOpt)
				}
				for j, v := range sol.X {
					if p.Integer[j] && math.Abs(v-math.Round(v)) > 1e-5 {
						t.Fatalf("seed %d: canceled incumbent X[%d]=%v not integral", seed, j, v)
					}
				}
			}
		default:
			t.Fatalf("seed %d: unexpected status %v after cancellation", seed, sol.Status)
		}
	}
}
