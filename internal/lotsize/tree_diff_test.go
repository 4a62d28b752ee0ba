package lotsize

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
)

// sameTreePlan requires two plans to agree bit for bit.
func sameTreePlan(t *testing.T, label string, got, want *TreeSolution) {
	t.Helper()
	if d := treePlanDiff(got, want); d != "" {
		t.Fatalf("%s: %s", label, d)
	}
}

// treePlanDiff describes the first difference between two plans, or
// returns "" when they agree bit for bit.
func treePlanDiff(got, want *TreeSolution) string {
	if len(got.Produce) != len(want.Produce) {
		return fmt.Sprintf("%d vertices, oracle %d", len(got.Produce), len(want.Produce))
	}
	if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
		return fmt.Sprintf("cost %v (%#x), oracle %v (%#x)", got.Cost, math.Float64bits(got.Cost), want.Cost, math.Float64bits(want.Cost))
	}
	for v := range want.Produce {
		if math.Float64bits(got.Produce[v]) != math.Float64bits(want.Produce[v]) ||
			math.Float64bits(got.Inventory[v]) != math.Float64bits(want.Inventory[v]) ||
			got.Setup[v] != want.Setup[v] {
			return fmt.Sprintf("vertex %d: produce %v inventory %v setup %v, oracle %v %v %v", v,
				got.Produce[v], got.Inventory[v], got.Setup[v], want.Produce[v], want.Inventory[v], want.Setup[v])
		}
	}
	return ""
}

// randomShape draws a topologically ordered tree: a balanced scenario tree,
// a deep chain, or a random recursive tree.
func randomShape(rng *rand.Rand) []int {
	switch rng.Intn(4) {
	case 0:
		branching := make([]int, 1+rng.Intn(4))
		for i := range branching {
			branching[i] = 1 + rng.Intn(3)
		}
		parent, _ := balancedTree(branching)
		return parent
	case 1:
		n := 1 + rng.Intn(80)
		parent := make([]int, n)
		for v := range parent {
			parent[v] = v - 1
		}
		return parent
	default:
		n := 1 + rng.Intn(50)
		parent := make([]int, n)
		parent[0] = -1
		for v := 1; v < n; v++ {
			// Favour recent vertices so paths get deep.
			lo := v - 1 - rng.Intn(min(v, 4))
			if rng.Intn(3) == 0 {
				lo = rng.Intn(v)
			}
			parent[v] = lo
		}
		return parent
	}
}

// stageProbs gives every vertex the absolute probability of a uniform
// split at each branching.
func stageProbs(parent []int) []float64 {
	n := len(parent)
	kids := make([]int, n)
	for v := 1; v < n; v++ {
		kids[parent[v]]++
	}
	prob := make([]float64, n)
	prob[0] = 1
	for v := 1; v < n; v++ {
		prob[v] = prob[parent[v]] / float64(kids[parent[v]])
	}
	return prob
}

// randomTreeProblem draws the problem of one differential trial: a random
// shape, costs that are integral on about half the trials (so exact cost
// ties are common), demands in one of four modes picked by trial, and an
// initial inventory that may equal a cumD value.
func randomTreeProblem(rng *rand.Rand, trial int) *TreeProblem {
	parent := randomShape(rng)
	n := len(parent)
	p := &TreeProblem{
		Parent: parent,
		Prob:   stageProbs(parent),
		Setup:  make([]float64, n),
		Unit:   make([]float64, n),
		Hold:   make([]float64, n),
		Demand: make([]float64, n),
	}
	depth := make([]int, n)
	for v := 1; v < n; v++ {
		depth[v] = depth[parent[v]] + 1
	}
	stageDemand := make([]float64, n)
	for i := range stageDemand {
		stageDemand[i] = rng.Float64() * 3
	}
	mode := trial % 4
	integral := rng.Intn(2) == 0
	for v := 0; v < n; v++ {
		p.Setup[v] = rng.Float64() * 4
		p.Unit[v] = rng.Float64() * 2
		p.Hold[v] = rng.Float64()
		if integral {
			p.Setup[v] = float64(rng.Intn(3))
			p.Unit[v] = float64(rng.Intn(2))
			p.Hold[v] = float64(rng.Intn(2))
		}
		switch mode {
		case 0: // stage-constant demand, the SRRP shape
			p.Demand[v] = stageDemand[depth[v]]
		case 1: // small integers: many duplicate cumD values
			p.Demand[v] = float64(rng.Intn(3))
		case 2: // decimals: paths summing to the same value often
			// differ in the last bits (0.1+0.2 ≠ 0.3), inside the tolerance
			p.Demand[v] = []float64{0.1, 0.2, 0.3, 0.7}[rng.Intn(4)]
		default:
			if rng.Intn(5) > 0 {
				p.Demand[v] = rng.Float64() * 3
			}
		}
	}
	cumD := make([]float64, n)
	for v := 0; v < n; v++ {
		cumD[v] = p.Demand[v]
		if v > 0 {
			cumD[v] += cumD[parent[v]]
		}
	}
	switch rng.Intn(4) {
	case 0:
		p.InitialInventory = cumD[rng.Intn(n)] // ε equal to some cumD
	case 1:
		p.InitialInventory = rng.Float64() * 4
	case 2:
		p.InitialInventory = 100 // covers every path
	}
	return p
}

// randomTreeProblems draws the trials of TestSolveTreeMatchesOracle.
func randomTreeProblems() []*TreeProblem {
	rng := rand.New(rand.NewSource(21))
	ps := make([]*TreeProblem, 4000)
	for trial := range ps {
		ps[trial] = randomTreeProblem(rng, trial)
	}
	return ps
}

// TestSolveTreeMatchesOracle compares the DP with the oracle on the seeded
// trials, which must index their memos both ways: directly (stage demands,
// few ranks) and hashed (per-vertex demands, ranks ≈ n).
func TestSolveTreeMatchesOracle(t *testing.T) {
	modes := map[bool]int{}
	for trial, p := range randomTreeProblems() {
		want, werr := solveTreeOracle(p)
		got, err := SolveTree(p)
		if (err == nil) != (werr == nil) {
			t.Fatalf("trial %d: err %v, oracle err %v", trial, err, werr)
		}
		if err != nil {
			continue
		}
		sameTreePlan(t, "trial", got, want)
		modes[directMemo(p)]++
	}
	if modes[true] == 0 || modes[false] == 0 {
		t.Fatalf("memo modes: %d direct, %d hashed; want both", modes[true], modes[false])
	}
}

// directMemo reports whether a solve of p indexes its memo directly.
func directMemo(p *TreeProblem) bool {
	d := newTreeDP(p)
	defer d.release()
	return d.memo.direct
}

// dfsTree is balancedTree with its vertices numbered in depth-first
// preorder: the vertices of one stage are no longer contiguous.
func dfsTree(branching []int) (parent, depth []int, prob []float64) {
	var visit func(pa, d int, pr float64)
	visit = func(pa, d int, pr float64) {
		v := len(parent)
		parent, depth, prob = append(parent, pa), append(depth, d), append(prob, pr)
		if d < len(branching) {
			for k := 0; k < branching[d]; k++ {
				visit(v, d+1, pr/float64(branching[d]))
			}
		}
	}
	visit(-1, 0, 1)
	return parent, depth, prob
}

// TestSolveTreeMatchesOracleOnDFSTrees solves stage-demand trees numbered
// depth first. Sibling leaves share a cumD and take their predecessor's
// rank, while a vertex that follows a finished subtree repeats a cumD seen
// earlier but not just before it, so its rank comes from the search. Both
// cases must occur, and every plan must match the oracle's bit for bit.
func TestSolveTreeMatchesOracleOnDFSTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	var runs, searched int
	for trial := 0; trial < 300; trial++ {
		branching := make([]int, 1+rng.Intn(5))
		for i := range branching {
			branching[i] = 1 + rng.Intn(4)
		}
		parent, depth, prob := dfsTree(branching)
		p := fillTree(rng, parent, prob, 0)
		stageDemand := make([]float64, len(branching)+1)
		for s := range stageDemand {
			if rng.Intn(4) > 0 { // a zero stage repeats its parent's cumD
				stageDemand[s] = float64(rng.Intn(3)) + rng.Float64()*float64(trial%2)
			}
		}
		for v := range p.Demand {
			p.Demand[v] = stageDemand[depth[v]]
		}
		if rng.Intn(2) == 0 {
			p.InitialInventory = stageDemand[0] + stageDemand[min(1, len(branching))]
		}
		cumD := make([]float64, len(parent))
		seen := map[float64]bool{}
		for v := range parent {
			cumD[v] = p.Demand[v]
			if v > 0 {
				cumD[v] += cumD[parent[v]]
				if cumD[v] == cumD[v-1] {
					runs++
				} else if seen[cumD[v]] {
					searched++
				}
			}
			seen[cumD[v]] = true
		}
		want, err := solveTreeOracle(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SolveTree(p)
		if err != nil {
			t.Fatal(err)
		}
		sameTreePlan(t, fmt.Sprintf("DFS trial %d", trial), got, want)
		if !directMemo(p) {
			t.Fatalf("DFS trial %d: a stage-demand tree with %d vertices indexes its memo by hash", trial, len(parent))
		}
	}
	if runs == 0 || searched == 0 {
		t.Fatalf("%d run-shared ranks, %d searched repeats; want both", runs, searched)
	}
}

// TestSolveTreePooledWorkspaces solves the differential trials, with large
// trees mixed in that grow the pooled workspace and its memo, in a shuffled
// order, and then from four goroutines at once, each in its own order.
// Every plan must match the oracle's bit for bit, whatever a recycled
// workspace last held.
func TestSolveTreePooledWorkspaces(t *testing.T) {
	ps := randomTreeProblems()
	rng := rand.New(rand.NewSource(24))
	for _, branching := range [][]int{{4, 4, 4, 4}, {2, 2, 2, 2, 2, 2, 2}} {
		parent, prob := balancedTree(branching)
		for i := 0; i < 8; i++ {
			ps = append(ps, fillTree(rng, parent, prob, 1.5*float64(i%2)))
		}
	}
	want := make([]*TreeSolution, len(ps))
	for i, p := range ps {
		sol, err := solveTreeOracle(p)
		if err != nil {
			t.Fatalf("problem %d: oracle: %v", i, err)
		}
		want[i] = sol
	}
	solveAll := func(order []int) string {
		for _, i := range order {
			got, err := SolveTree(ps[i])
			if err != nil {
				return fmt.Sprintf("problem %d: %v", i, err)
			}
			if d := treePlanDiff(got, want[i]); d != "" {
				return fmt.Sprintf("problem %d: %s", i, d)
			}
		}
		return ""
	}
	if d := solveAll(rng.Perm(len(ps))); d != "" {
		t.Fatalf("shuffled: %s", d)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		order := rng.Perm(len(ps))
		wg.Add(1)
		go func() {
			defer wg.Done()
			if d := solveAll(order); d != "" {
				t.Errorf("goroutine %d: %s", g, d)
			}
		}()
	}
	wg.Wait()
}

// TestSolveTreePlanOutlivesLaterSolves requires a returned plan to share
// no memory with the pooled workspace: later solves, smaller and larger,
// leave it as it was.
func TestSolveTreePlanOutlivesLaterSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	parent, prob := balancedTree([]int{3, 3, 3, 3})
	sol, err := SolveTree(fillTree(rng, parent, prob, 0))
	if err != nil {
		t.Fatal(err)
	}
	kept := &TreeSolution{
		Cost:      sol.Cost,
		Produce:   slices.Clone(sol.Produce),
		Setup:     slices.Clone(sol.Setup),
		Inventory: slices.Clone(sol.Inventory),
	}
	later := randomTreeProblems()[:500]
	bigParent, bigProb := balancedTree([]int{4, 4, 4, 4})
	later = append(later, fillTree(rng, parent, prob, 1.5), fillTree(rng, bigParent, bigProb, 0))
	for _, p := range later {
		if _, err := SolveTree(p); err != nil {
			t.Fatal(err)
		}
	}
	sameTreePlan(t, "plan after later solves", sol, kept)
}

func TestSolveTreeMatchesOracleOnLargeTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, branching := range [][]int{{4, 4, 4, 4}, {3, 3, 3, 3, 3}, {2, 2, 2, 2, 2, 2, 2}} {
		parent, prob := balancedTree(branching)
		for _, eps := range []float64{0, 1.5} {
			p := fillTree(rng, parent, prob, eps)
			want, err := solveTreeOracle(p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := SolveTree(p)
			if err != nil {
				t.Fatal(err)
			}
			sameTreePlan(t, "large tree", got, want)
		}
	}
}

func TestTreeValidationNonFinite(t *testing.T) {
	fields := []struct {
		name string
		set  func(p *TreeProblem, x float64)
	}{
		{"prob", func(p *TreeProblem, x float64) { p.Prob[1] = x }},
		{"setup", func(p *TreeProblem, x float64) { p.Setup[2] = x }},
		{"unit", func(p *TreeProblem, x float64) { p.Unit[0] = x }},
		{"hold", func(p *TreeProblem, x float64) { p.Hold[1] = x }},
		{"demand", func(p *TreeProblem, x float64) { p.Demand[2] = x }},
		{"initial inventory", func(p *TreeProblem, x float64) { p.InitialInventory = x }},
	}
	for _, f := range fields {
		for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			p := &TreeProblem{
				Parent: []int{-1, 0, 0},
				Prob:   []float64{1, 0.5, 0.5},
				Setup:  []float64{1, 1, 1},
				Unit:   []float64{1, 1, 1},
				Hold:   []float64{0.1, 0.1, 0.1},
				Demand: []float64{1, 2, 3},
			}
			f.set(p, x)
			sol, err := SolveTree(p)
			if err == nil {
				t.Errorf("%s = %v: no error (cost %v)", f.name, x, sol.Cost)
				continue
			}
			if !strings.Contains(err.Error(), "non-finite") {
				t.Errorf("%s = %v: error %q does not name the non-finite data", f.name, x, err)
			}
		}
	}
}

// TestSolveTreeAllocations pins the allocation count of a solve on SRRP-
// shaped trees (one demand per stage): with the workspace pooled, only the
// returned plan, whatever the size, where a map memo per vertex costs
// hundreds. GC is paused so pool evictions cannot flake the count. The race
// detector's sync.Pool drops a random share of Puts; a solve that misses
// the pool also makes the workspace, its three rows and the memo slots, so
// under it the bound is that of a solve with no pool.
func TestSolveTreeAllocations(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	limit := 4.0 // the TreeSolution and its three slices
	if raceEnabled {
		limit = 9
	}
	rng := rand.New(rand.NewSource(23))
	for _, branching := range [][]int{{3, 3, 3}, {4, 4, 4, 4}} {
		parent, prob := balancedTree(branching)
		p := fillTree(rng, parent, prob, 0)
		for v := range p.Demand {
			depth := 0
			for u := v; u > 0; u = parent[u] {
				depth++
			}
			p.Demand[v] = 0.4 + 0.1*float64(depth)
		}
		if allocs := testing.AllocsPerRun(10, func() { _, _ = SolveTree(p) }); allocs > limit {
			t.Errorf("%d vertices: %v allocations per solve, want at most %v", len(parent), allocs, limit)
		}
	}
}

// TestOversizedWorkspaceIsNotPooled requires release to drop a workspace
// whose buffers outgrew maxPooledBytes, so one huge tree cannot leave them
// circulating in the pool. GC is paused so the pool keeps what it is given.
func TestOversizedWorkspaceIsNotPooled(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	parent, prob := balancedTree([]int{3, 3})
	d := newTreeDP(fillTree(rand.New(rand.NewSource(29)), parent, prob, 0))
	d.memo.slots = make([]memoSlot, maxPooledBytes/24+1)
	d.release()
	for i := 0; i < 4; i++ {
		if treeDPPool.Get().(*treeDP) == d {
			t.Fatal("an oversized workspace went back into the pool")
		}
	}
}
