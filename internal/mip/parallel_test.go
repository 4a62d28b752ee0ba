package mip

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"rentplan/internal/lp"
)

// knapsackInstance builds a random 0/1 knapsack with n items.
func knapsackInstance(rng *rand.Rand, n int) *Problem {
	p := &Problem{
		LP: &lp.Problem{
			C:     make([]float64, n),
			SA:    make([]lp.SparseRow, 1),
			Rel:   []lp.Rel{lp.LE},
			B:     []float64{0},
			Upper: make([]float64, n),
		},
		Integer: intSlice(n, true),
	}
	row := make([]float64, n)
	s := 0.0
	for j := 0; j < n; j++ {
		p.LP.C[j] = -(1 + 10*rng.Float64())
		p.LP.Upper[j] = 1
		row[j] = 1 + 10*rng.Float64()
		s += row[j]
	}
	p.LP.SA[0] = lp.DenseRow(row)
	p.LP.B[0] = s / 2
	return p
}

// lotSizingInstance builds a T-slot single-item fixed-charge lot-sizing MILP
// mirroring the DRRP structure: inventory flow β_{t-1} + α_t − β_t = d_t,
// setup forcing α_t ≤ M·χ_t with χ binary, and per-slot production, holding
// and setup costs.
func lotSizingInstance(rng *rand.Rand, T int) *Problem {
	nv := 3 * T // α_t, β_t, χ_t
	alpha := func(t int) int { return t }
	beta := func(t int) int { return T + t }
	chi := func(t int) int { return 2*T + t }
	p := &Problem{
		LP: &lp.Problem{
			C:     make([]float64, nv),
			Upper: make([]float64, nv),
		},
		Integer: make([]bool, nv),
	}
	dem := make([]float64, T)
	total := 0.0
	for t := 0; t < T; t++ {
		dem[t] = 1 + 4*rng.Float64()
		total += dem[t]
	}
	for t := 0; t < T; t++ {
		p.LP.C[alpha(t)] = 0.5 + rng.Float64()     // production cost
		p.LP.C[beta(t)] = 0.05 + 0.2*rng.Float64() // holding cost
		p.LP.C[chi(t)] = 1 + 5*rng.Float64()       // setup charge
		p.LP.Upper[alpha(t)] = total
		p.LP.Upper[beta(t)] = total
		p.LP.Upper[chi(t)] = 1
		p.Integer[chi(t)] = true

		// β_{t-1} + α_t − β_t = d_t
		row := make([]float64, nv)
		row[alpha(t)] = 1
		row[beta(t)] = -1
		if t > 0 {
			row[beta(t-1)] = 1
		}
		p.LP.AddRow(row, lp.EQ, dem[t])

		// α_t ≤ total·χ_t
		row2 := make([]float64, nv)
		row2[alpha(t)] = 1
		row2[chi(t)] = -total
		p.LP.AddRow(row2, lp.LE, 0)
	}
	return p
}

// TestWorkersAgreeOnOptimum asserts that every worker count proves the same
// optimal objective on the deterministic instances of this package's tests.
func TestWorkersAgreeOnOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	instances := []struct {
		name string
		p    *Problem
	}{
		{"knapsack4", &Problem{
			LP: &lp.Problem{
				C:     []float64{-10, -13, -7, -11},
				SA:    sparseRows([][]float64{{3, 4, 2, 3}}),
				Rel:   []lp.Rel{lp.LE},
				B:     []float64{7},
				Upper: []float64{1, 1, 1, 1},
			},
			Integer: intSlice(4, true),
		}},
		{"mixed", &Problem{
			LP: &lp.Problem{
				C:     []float64{-1, -2},
				SA:    sparseRows([][]float64{{1, 1}, {1, 0}}),
				Rel:   []lp.Rel{lp.LE, lp.GE},
				B:     []float64{7.5, 2.2},
				Upper: []float64{10, 10},
			},
			Integer: []bool{true, false},
		}},
		{"knapsack16", knapsackInstance(rng, 16)},
		{"lotsizing8", lotSizingInstance(rng, 8)},
	}
	for _, ins := range instances {
		var ref float64
		for _, w := range []int{1, 2, 8} {
			sol, err := SolveWithOptions(ins.p, Options{Workers: w})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", ins.name, w, err)
			}
			if sol.Status != StatusOptimal {
				t.Fatalf("%s workers=%d: status %v", ins.name, w, sol.Status)
			}
			if w == 1 {
				ref = sol.Obj
				continue
			}
			if math.Abs(sol.Obj-ref) > 1e-6 {
				t.Fatalf("%s workers=%d: obj %v, serial %v", ins.name, w, sol.Obj, ref)
			}
			if sol.Stats.Workers != w {
				t.Fatalf("%s: Stats.Workers=%d, want %d", ins.name, sol.Stats.Workers, w)
			}
		}
	}
}

// TestParallelLotSizingFuzz cross-checks serial and parallel solves on a
// stream of randomized lot-sizing instances.
func TestParallelLotSizingFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	trials := 25
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		p := lotSizingInstance(rng, 4+rng.Intn(7))
		serial, err := SolveWithOptions(p, Options{Workers: 1})
		if err != nil {
			t.Fatalf("trial %d serial: %v", trial, err)
		}
		if serial.Status != StatusOptimal {
			t.Fatalf("trial %d serial status %v", trial, serial.Status)
		}
		for _, w := range []int{2, 8} {
			par, err := SolveWithOptions(p, Options{Workers: w})
			if err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, w, err)
			}
			if par.Status != StatusOptimal {
				t.Fatalf("trial %d workers=%d status %v", trial, w, par.Status)
			}
			if math.Abs(par.Obj-serial.Obj) > 1e-6 {
				t.Fatalf("trial %d workers=%d: obj %v, serial %v", trial, w, par.Obj, serial.Obj)
			}
		}
	}
}

// TestStatsAndProgress exercises the observability layer: the final Stats
// snapshot must be internally consistent and the Progress callback must fire
// with a monotone incumbent trajectory.
func TestStatsAndProgress(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	p := knapsackInstance(rng, 18)
	var calls atomic.Int64
	sol, err := SolveWithOptions(p, Options{
		Workers:       4,
		ProgressEvery: time.Nanosecond,
		Progress:      func(st Stats) { calls.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status %v", sol.Status)
	}
	if calls.Load() == 0 {
		t.Fatal("Progress callback never fired")
	}
	st := sol.Stats
	if st.Nodes != sol.Nodes {
		t.Fatalf("Stats.Nodes=%d, Solution.Nodes=%d", st.Nodes, sol.Nodes)
	}
	if st.Workers != 4 || len(st.WorkerNodes) != 4 {
		t.Fatalf("worker accounting: %d workers, %v", st.Workers, st.WorkerNodes)
	}
	sum := 0
	for _, c := range st.WorkerNodes {
		sum += c
	}
	if sum != st.Nodes {
		t.Fatalf("per-worker nodes %v sum to %d, want %d", st.WorkerNodes, sum, st.Nodes)
	}
	if st.SimplexIters <= 0 {
		t.Fatal("no simplex iterations recorded")
	}
	if !st.HasIncumbent || math.Abs(st.Incumbent-sol.Obj) > 1e-12 {
		t.Fatalf("Stats incumbent %v (has=%v), want %v", st.Incumbent, st.HasIncumbent, sol.Obj)
	}
	if len(st.Incumbents) == 0 {
		t.Fatal("empty incumbent trajectory")
	}
	prev := math.Inf(1)
	for i, rec := range st.Incumbents {
		if rec.Obj >= prev {
			t.Fatalf("trajectory not improving at %d: %v then %v", i, prev, rec.Obj)
		}
		if rec.Elapsed < 0 {
			t.Fatalf("negative elapsed at %d", i)
		}
		prev = rec.Obj
	}
	if last := st.Incumbents[len(st.Incumbents)-1].Obj; math.Abs(last-sol.Obj) > 1e-12 {
		t.Fatalf("trajectory ends at %v, solution %v", last, sol.Obj)
	}
	if st.Gap > 1e-9 {
		t.Fatalf("final gap %v at optimality", st.Gap)
	}
}

// TestSerialDeterministic asserts the Workers=1 path is reproducible:
// identical node counts and identical solutions across repeated runs.
func TestSerialDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	p := knapsackInstance(rng, 14)
	first, err := SolveWithOptions(p, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		sol, err := SolveWithOptions(p, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Nodes != first.Nodes || sol.Obj != first.Obj {
			t.Fatalf("run %d: nodes=%d obj=%v, first nodes=%d obj=%v",
				run, sol.Nodes, sol.Obj, first.Nodes, first.Obj)
		}
		for j := range sol.X {
			if sol.X[j] != first.X[j] {
				t.Fatalf("run %d: X[%d] differs", run, j)
			}
		}
	}
}
