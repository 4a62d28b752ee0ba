package lotsize

import (
	"math"
	"math/rand"
	"testing"

	"rentplan/internal/lp"
	"rentplan/internal/mip"
)

// chainMILP builds the DRRP-style MILP for a chain problem: variables
// [α_0..α_{T−1}, β_0..β_{T−1}, χ_0..χ_{T−1}].
func chainMILP(p *ChainProblem) *mip.Problem {
	T := p.T()
	nv := 3 * T
	alpha := func(t int) int { return t }
	beta := func(t int) int { return T + t }
	chi := func(t int) int { return 2*T + t }
	bigB := p.InitialInventory
	for _, d := range p.Demand {
		bigB += d
	}
	bigB += 1 // strict slack
	lpp := &lp.Problem{
		C:     make([]float64, nv),
		Lower: make([]float64, nv),
		Upper: make([]float64, nv),
	}
	for t := 0; t < T; t++ {
		lpp.C[alpha(t)] = p.Unit[t]
		lpp.C[beta(t)] = p.Hold[t]
		lpp.C[chi(t)] = p.Setup[t]
		lpp.Upper[alpha(t)] = math.Inf(1)
		lpp.Upper[beta(t)] = math.Inf(1)
		lpp.Upper[chi(t)] = 1
	}
	for t := 0; t < T; t++ {
		// β_{t−1} + α_t − β_t = D_t.
		row := make([]float64, nv)
		row[alpha(t)] = 1
		row[beta(t)] = -1
		rhs := p.Demand[t]
		if t > 0 {
			row[beta(t-1)] = 1
		} else {
			rhs -= p.InitialInventory
		}
		lpp.AddRow(row, lp.EQ, rhs)
		// α_t ≤ B·χ_t.
		row2 := make([]float64, nv)
		row2[alpha(t)] = 1
		row2[chi(t)] = -bigB
		lpp.AddRow(row2, lp.LE, 0)
	}
	ints := make([]bool, nv)
	for t := 0; t < T; t++ {
		ints[chi(t)] = true
	}
	return &mip.Problem{LP: lpp, Integer: ints}
}

// chainMILPConstant is the holding cost of carrying ε, which the MILP pays
// inside β but SolveChain reports inside Cost as well — both include it, so
// objectives are directly comparable.

func solveChainMILP(t *testing.T, p *ChainProblem) float64 {
	t.Helper()
	sol, err := mip.Solve(chainMILP(p))
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != mip.StatusOptimal {
		t.Fatalf("MILP status %v", sol.Status)
	}
	return sol.Obj
}

func TestChainHandExample(t *testing.T) {
	// Two slots, expensive setup: producing once for both is optimal.
	p := &ChainProblem{
		Setup:  []float64{10, 10},
		Unit:   []float64{1, 1},
		Hold:   []float64{0.5, 0.5},
		Demand: []float64{4, 4},
	}
	sol, err := SolveChain(p)
	if err != nil {
		t.Fatal(err)
	}
	// One setup: 10 + 8·1 + hold 4·0.5 = 20; two setups: 20 + 8 = 28 − ...
	// two setups cost 10+4 + 10+4 = 28. One setup wins with 20.
	if math.Abs(sol.Cost-20) > 1e-9 {
		t.Fatalf("cost = %v, want 20 (produce=%v)", sol.Cost, sol.Produce)
	}
	if !sol.Setup[0] || sol.Setup[1] {
		t.Fatalf("setups = %v, want [true false]", sol.Setup)
	}
	if sol.Produce[0] != 8 || sol.Inventory[0] != 4 || sol.Inventory[1] != 0 {
		t.Fatalf("plan: produce=%v inv=%v", sol.Produce, sol.Inventory)
	}
}

func TestChainCheapSetupProducesJustInTime(t *testing.T) {
	p := &ChainProblem{
		Setup:  []float64{0.01, 0.01, 0.01},
		Unit:   []float64{1, 1, 1},
		Hold:   []float64{10, 10, 10},
		Demand: []float64{1, 2, 3},
	}
	sol, err := SolveChain(p)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < 3; tt++ {
		if !sol.Setup[tt] || math.Abs(sol.Produce[tt]-p.Demand[tt]) > 1e-9 {
			t.Fatalf("JIT expected: %v %v", sol.Setup, sol.Produce)
		}
		if sol.Inventory[tt] != 0 {
			t.Fatalf("inventory should be zero: %v", sol.Inventory)
		}
	}
}

func TestChainInitialInventory(t *testing.T) {
	// ε covers the first demand fully and half of the second.
	p := &ChainProblem{
		Setup:  []float64{5, 5, 5},
		Unit:   []float64{1, 1, 1},
		Hold:   []float64{0.1, 0.1, 0.1},
		Demand: []float64{2, 2, 2},

		InitialInventory: 3,
	}
	sol, err := SolveChain(p)
	if err != nil {
		t.Fatal(err)
	}
	want := solveChainMILP(t, p)
	if math.Abs(sol.Cost-want) > 1e-6 {
		t.Fatalf("DP cost %v != MILP cost %v", sol.Cost, want)
	}
	// Inventory balance must hold with the original demands.
	inv := p.InitialInventory
	for tt := 0; tt < 3; tt++ {
		inv = inv + sol.Produce[tt] - p.Demand[tt]
		if math.Abs(inv-sol.Inventory[tt]) > 1e-9 || inv < -1e-9 {
			t.Fatalf("balance broken at %d: %v vs %v", tt, inv, sol.Inventory[tt])
		}
	}
}

func TestChainEpsilonCoversEverything(t *testing.T) {
	p := &ChainProblem{
		Setup:  []float64{5, 5},
		Unit:   []float64{1, 1},
		Hold:   []float64{0.25, 0.25},
		Demand: []float64{1, 1},

		InitialInventory: 10,
	}
	sol, err := SolveChain(p)
	if err != nil {
		t.Fatal(err)
	}
	// No production needed; cost is pure ε carrying: end-of-slot leftovers
	// are 9 and 8 → 0.25·17 = 4.25.
	if math.Abs(sol.Cost-4.25) > 1e-9 {
		t.Fatalf("cost %v, want 4.25", sol.Cost)
	}
	for tt := range sol.Setup {
		if sol.Setup[tt] || sol.Produce[tt] != 0 {
			t.Fatalf("unexpected production: %v %v", sol.Setup, sol.Produce)
		}
	}
}

func TestChainZeroDemand(t *testing.T) {
	p := &ChainProblem{
		Setup:  []float64{1, 1, 1},
		Unit:   []float64{1, 1, 1},
		Hold:   []float64{1, 1, 1},
		Demand: []float64{0, 0, 0},
	}
	sol, err := SolveChain(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 0 {
		t.Fatalf("cost %v", sol.Cost)
	}
}

func TestChainZeroDemandGaps(t *testing.T) {
	p := &ChainProblem{
		Setup:  []float64{3, 3, 3, 3, 3},
		Unit:   []float64{1, 1, 1, 1, 1},
		Hold:   []float64{0.2, 0.2, 0.2, 0.2, 0.2},
		Demand: []float64{2, 0, 0, 0, 2},
	}
	sol, err := SolveChain(p)
	if err != nil {
		t.Fatal(err)
	}
	want := solveChainMILP(t, p)
	if math.Abs(sol.Cost-want) > 1e-6 {
		t.Fatalf("DP %v != MILP %v", sol.Cost, want)
	}
}

func TestChainTimeVaryingUnitCosts(t *testing.T) {
	// Speculative motive: unit cost rises sharply, so produce early despite
	// holding cost.
	p := &ChainProblem{
		Setup:  []float64{1, 1, 1},
		Unit:   []float64{1, 10, 10},
		Hold:   []float64{0.5, 0.5, 0.5},
		Demand: []float64{1, 1, 1},
	}
	sol, err := SolveChain(p)
	if err != nil {
		t.Fatal(err)
	}
	want := solveChainMILP(t, p)
	if math.Abs(sol.Cost-want) > 1e-6 {
		t.Fatalf("DP %v != MILP %v", sol.Cost, want)
	}
	if !sol.Setup[0] || sol.Setup[1] || sol.Setup[2] {
		t.Fatalf("expected single early batch: %v", sol.Setup)
	}
}

func TestChainValidation(t *testing.T) {
	bad := []*ChainProblem{
		{},
		{Setup: []float64{1}, Unit: []float64{1}, Hold: []float64{1}, Demand: []float64{1, 2}},
		{Setup: []float64{1}, Unit: []float64{1}, Hold: []float64{1}, Demand: []float64{-1}},
		{Setup: []float64{1}, Unit: []float64{1}, Hold: []float64{1}, Demand: []float64{1}, InitialInventory: -1},
		{Setup: []float64{math.NaN()}, Unit: []float64{1}, Hold: []float64{1}, Demand: []float64{1}},
	}
	for i, p := range bad {
		if _, err := SolveChain(p); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestChainZIOProperty(t *testing.T) {
	// Wagner–Whitin solutions satisfy zero-inventory ordering on net
	// demand: production only happens when incoming inventory is exhausted.
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 40; trial++ {
		T := 3 + rng.Intn(10)
		p := randomChain(rng, T, 0)
		sol, err := SolveChain(p)
		if err != nil {
			t.Fatal(err)
		}
		prev := p.InitialInventory
		for tt := 0; tt < T; tt++ {
			if sol.Produce[tt] > 1e-9 && prev > 1e-9 {
				t.Fatalf("trial %d: ZIO violated at %d: inv=%v produce=%v", trial, tt, prev, sol.Produce[tt])
			}
			prev = sol.Inventory[tt]
		}
	}
}

func randomChain(rng *rand.Rand, T int, eps float64) *ChainProblem {
	p := &ChainProblem{
		Setup:            make([]float64, T),
		Unit:             make([]float64, T),
		Hold:             make([]float64, T),
		Demand:           make([]float64, T),
		InitialInventory: eps,
	}
	for t := 0; t < T; t++ {
		p.Setup[t] = rng.Float64() * 5
		p.Unit[t] = rng.Float64() * 2
		p.Hold[t] = rng.Float64() * 1
		if rng.Float64() < 0.2 {
			p.Demand[t] = 0
		} else {
			p.Demand[t] = rng.Float64() * 3
		}
	}
	return p
}

func TestChainRandomVsMILP(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		T := 2 + rng.Intn(7)
		eps := 0.0
		if rng.Float64() < 0.5 {
			eps = rng.Float64() * 3
		}
		p := randomChain(rng, T, eps)
		sol, err := SolveChain(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := solveChainMILP(t, p)
		if math.Abs(sol.Cost-want) > 1e-5 {
			t.Fatalf("trial %d: DP %v != MILP %v (problem %+v)", trial, sol.Cost, want, p)
		}
		// Verify the reported plan's cost equals the reported Cost.
		recomputed := 0.0
		inv := p.InitialInventory
		for tt := 0; tt < T; tt++ {
			if sol.Setup[tt] {
				recomputed += p.Setup[tt]
			}
			recomputed += p.Unit[tt] * sol.Produce[tt]
			inv = inv + sol.Produce[tt] - p.Demand[tt]
			if inv < -1e-9 {
				t.Fatalf("trial %d: negative inventory", trial)
			}
			recomputed += p.Hold[tt] * math.Max(inv, 0)
			if sol.Produce[tt] > 1e-9 && !sol.Setup[tt] {
				t.Fatalf("trial %d: production without setup", trial)
			}
		}
		if math.Abs(recomputed-sol.Cost) > 1e-6 {
			t.Fatalf("trial %d: plan cost %v != reported %v", trial, recomputed, sol.Cost)
		}
	}
}
