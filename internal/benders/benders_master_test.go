package benders

import (
	"math"
	"math/rand"
	"testing"

	"rentplan/internal/lp"
)

// randomTwoStage generates a feasible bounded two-stage instance (positive
// W on GE rows keeps every recourse LP feasible, positive Q keeps it
// bounded), the same family the extensive-form agreement test uses.
func randomTwoStage(rng *rand.Rand) *Problem {
	n := 1 + rng.Intn(3)
	ny := 1 + rng.Intn(3)
	K := 2 + rng.Intn(4)
	p := &Problem{
		C:     make([]float64, n),
		Lower: make([]float64, n),
		Upper: make([]float64, n),
	}
	for j := 0; j < n; j++ {
		p.C[j] = rng.Float64() * 2
		p.Upper[j] = 5
	}
	probs := make([]float64, K)
	total := 0.0
	for k := range probs {
		probs[k] = 0.1 + rng.Float64()
		total += probs[k]
	}
	for k := 0; k < K; k++ {
		m2 := 1 + rng.Intn(2)
		sc := Scenario{Prob: probs[k] / total, Q: make([]float64, ny)}
		for j := 0; j < ny; j++ {
			sc.Q[j] = 0.2 + rng.Float64()*2
		}
		for i := 0; i < m2; i++ {
			wr := make([]float64, ny)
			tr := make([]float64, n)
			for j := range wr {
				wr[j] = 0.2 + rng.Float64()
			}
			for j := range tr {
				tr[j] = rng.Float64()
			}
			sc.W = append(sc.W, wr)
			sc.T = append(sc.T, tr)
			sc.Rel = append(sc.Rel, lp.GE)
			sc.H = append(sc.H, rng.Float64()*4)
		}
		p.Scenarios = append(p.Scenarios, sc)
	}
	return p
}

// TestMasterWarmStartFuzz pins the warm-started master against the
// extensive form solved cold on random instances: identical optima, and the
// warm path must actually engage on every multi-iteration run.
func TestMasterWarmStartFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 30; trial++ {
		p := randomTwoStage(rng)
		opts := Options{MultiCut: trial%3 == 1}
		warm, err := Solve(p, opts)
		if err != nil {
			t.Fatalf("trial %d warm: %v", trial, err)
		}
		if !warm.Converged {
			t.Fatalf("trial %d: no convergence", trial)
		}
		if ext := solveExtensive(t, p); math.Abs(warm.Obj-ext) > 1e-6*(1+math.Abs(ext)) {
			t.Fatalf("trial %d: warm obj %v, extensive obj %v", trial, warm.Obj, ext)
		}
		if warm.Iterations > 1 && warm.WarmMasters == 0 {
			t.Fatalf("trial %d: %d iterations without a single warm master", trial, warm.Iterations)
		}
	}
}

// TestFeasibilityCutsWarm runs the feasibility-cut path with the warm
// master, since feasibility cuts append rows without a θ column and must
// extend the basis just the same, and checks it against the extensive form.
func TestFeasibilityCutsWarm(t *testing.T) {
	// x ∈ [0, 10]; the scenario requires y ≥ 0 with −y ≥ 1 − x, i.e.
	// infeasible whenever x < 1, forcing a feasibility cut first.
	p := &Problem{
		C:     []float64{1},
		Lower: []float64{0},
		Upper: []float64{10},
		Scenarios: []Scenario{{
			Prob: 1,
			Q:    []float64{1},
			W:    [][]float64{{-1}},
			Rel:  []lp.Rel{lp.GE},
			H:    []float64{1},
			T:    [][]float64{{1}},
		}},
	}
	warm, err := Solve(p, Options{})
	if err != nil || !warm.Converged {
		t.Fatalf("warm: %v %+v", err, warm)
	}
	if warm.FeasCuts == 0 {
		t.Fatalf("feasibility path not exercised: %+v", warm)
	}
	if warm.WarmMasters == 0 {
		t.Fatalf("no master re-solve was warm-started after the feasibility cut: %+v", warm)
	}
	if ext := solveExtensive(t, p); math.Abs(warm.Obj-ext) > 1e-9*(1+math.Abs(ext)) {
		t.Fatalf("warm obj %v, extensive obj %v", warm.Obj, ext)
	}
}
