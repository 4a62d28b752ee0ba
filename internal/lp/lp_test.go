package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

const eps = 1e-6

// sparseRows converts dense coefficient rows to the Problem.SA format, the
// way AddRow does.
func sparseRows(a [][]float64) []SparseRow {
	rows := make([]SparseRow, len(a))
	for i, row := range a {
		rows[i] = DenseRow(row)
	}
	return rows
}

func checkSolve(t *testing.T, p *Problem, wantStatus Status, wantObj float64, wantX []float64) *Solution {
	t.Helper()
	sol, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != wantStatus {
		t.Fatalf("status = %v, want %v (sol=%+v)", sol.Status, wantStatus, sol)
	}
	if wantStatus != StatusOptimal {
		return sol
	}
	if math.Abs(sol.Obj-wantObj) > eps {
		t.Fatalf("obj = %.9f, want %.9f (x=%v)", sol.Obj, wantObj, sol.X)
	}
	if wantX != nil {
		for j := range wantX {
			if math.Abs(sol.X[j]-wantX[j]) > eps {
				t.Fatalf("x[%d] = %.9f, want %.9f (x=%v)", j, sol.X[j], wantX[j], sol.X)
			}
		}
	}
	return sol
}

func TestSimple2D(t *testing.T) {
	// max x+y s.t. x+2y<=4, 3x+y<=6 => min -(x+y). Optimum x=1.6,y=1.2.
	p := &Problem{
		C:   []float64{-1, -1},
		SA:  sparseRows([][]float64{{1, 2}, {3, 1}}),
		Rel: []Rel{LE, LE},
		B:   []float64{4, 6},
	}
	checkSolve(t, p, StatusOptimal, -2.8, []float64{1.6, 1.2})
}

func TestEqualityRow(t *testing.T) {
	// min x+2y s.t. x+y=3, x<=2 => x=2, y=1, obj 4.
	p := &Problem{
		C:     []float64{1, 2},
		SA:    sparseRows([][]float64{{1, 1}}),
		Rel:   []Rel{EQ},
		B:     []float64{3},
		Upper: []float64{2, math.Inf(1)},
	}
	checkSolve(t, p, StatusOptimal, 4, []float64{2, 1})
}

func TestGERow(t *testing.T) {
	// min 2x+3y s.t. x+y>=10, x<=4 => x=4, y=6, obj 26.
	p := &Problem{
		C:     []float64{2, 3},
		SA:    sparseRows([][]float64{{1, 1}}),
		Rel:   []Rel{GE},
		B:     []float64{10},
		Upper: []float64{4, math.Inf(1)},
	}
	checkSolve(t, p, StatusOptimal, 26, []float64{4, 6})
}

func TestInfeasible(t *testing.T) {
	p := &Problem{
		C:   []float64{1},
		SA:  sparseRows([][]float64{{1}, {1}}),
		Rel: []Rel{GE, LE},
		B:   []float64{5, 3},
	}
	checkSolve(t, p, StatusInfeasible, 0, nil)
}

func TestInfeasibleBounds(t *testing.T) {
	// x <= 1 (bound), x >= 2 (row).
	p := &Problem{
		C:     []float64{0},
		SA:    sparseRows([][]float64{{1}}),
		Rel:   []Rel{GE},
		B:     []float64{2},
		Upper: []float64{1},
	}
	checkSolve(t, p, StatusInfeasible, 0, nil)
}

func TestUnbounded(t *testing.T) {
	p := &Problem{
		C:   []float64{-1, 0},
		SA:  sparseRows([][]float64{{-1, 1}}),
		Rel: []Rel{LE},
		B:   []float64{1},
	}
	checkSolve(t, p, StatusUnbounded, 0, nil)
}

func TestFreeVariable(t *testing.T) {
	// min x s.t. x >= -5 with x free => x=-5.
	p := &Problem{
		C:     []float64{1},
		SA:    sparseRows([][]float64{{1}}),
		Rel:   []Rel{GE},
		B:     []float64{-5},
		Lower: []float64{math.Inf(-1)},
	}
	checkSolve(t, p, StatusOptimal, -5, []float64{-5})
}

func TestFreeVariablePair(t *testing.T) {
	// min x+y, x free, y free, x+y = 7, x - y = 1 => x=4,y=3.
	inf := math.Inf(1)
	p := &Problem{
		C:     []float64{1, 1},
		SA:    sparseRows([][]float64{{1, 1}, {1, -1}}),
		Rel:   []Rel{EQ, EQ},
		B:     []float64{7, 1},
		Lower: []float64{-inf, -inf},
		Upper: []float64{inf, inf},
	}
	checkSolve(t, p, StatusOptimal, 7, []float64{4, 3})
}

func TestBoundFlip(t *testing.T) {
	// min -x - 10y s.t. x + y <= 5, 0<=x<=1, 0<=y<=3 => x=1,y=3.
	p := &Problem{
		C:     []float64{-1, -10},
		SA:    sparseRows([][]float64{{1, 1}}),
		Rel:   []Rel{LE},
		B:     []float64{5},
		Upper: []float64{1, 3},
	}
	checkSolve(t, p, StatusOptimal, -31, []float64{1, 3})
}

func TestNegativeRHS(t *testing.T) {
	// min x+y s.t. -x - y <= -4 (i.e. x+y >= 4).
	p := &Problem{
		C:   []float64{1, 1},
		SA:  sparseRows([][]float64{{-1, -1}}),
		Rel: []Rel{LE},
		B:   []float64{-4},
	}
	checkSolve(t, p, StatusOptimal, 4, nil)
}

func TestFixedVariable(t *testing.T) {
	// y fixed at 2: min x s.t. x + y >= 5 => x=3.
	p := &Problem{
		C:     []float64{1, 0},
		SA:    sparseRows([][]float64{{1, 1}}),
		Rel:   []Rel{GE},
		B:     []float64{5},
		Lower: []float64{0, 2},
		Upper: []float64{math.Inf(1), 2},
	}
	checkSolve(t, p, StatusOptimal, 3, []float64{3, 2})
}

func TestRedundantRows(t *testing.T) {
	// Duplicate equality rows must not break phase 1 eviction.
	p := &Problem{
		C:   []float64{1, 1},
		SA:  sparseRows([][]float64{{1, 1}, {1, 1}, {2, 2}}),
		Rel: []Rel{EQ, EQ, EQ},
		B:   []float64{4, 4, 8},
	}
	checkSolve(t, p, StatusOptimal, 4, nil)
}

func TestDegenerateKlee(t *testing.T) {
	// A degenerate LP that forces many ties in the ratio test.
	p := &Problem{
		C:   []float64{-0.75, 150, -0.02, 6},
		SA:  sparseRows([][]float64{{0.25, -60, -0.04, 9}, {0.5, -90, -0.02, 3}, {0, 0, 1, 0}}),
		Rel: []Rel{LE, LE, LE},
		B:   []float64{0, 0, 1},
	}
	// Classic Beale cycling example; optimum is -0.05.
	checkSolve(t, p, StatusOptimal, -0.05, nil)
}

func TestValidateErrors(t *testing.T) {
	bad := []*Problem{
		{C: []float64{1}, SA: sparseRows([][]float64{{1, 2}}), Rel: []Rel{LE}, B: []float64{1}},
		{C: []float64{1}, SA: sparseRows([][]float64{{1}}), Rel: []Rel{LE}, B: []float64{1, 2}},
		{C: []float64{1}, SA: sparseRows([][]float64{{1}}), Rel: []Rel{LE}, B: []float64{1}, Lower: []float64{2}, Upper: []float64{1}},
		{C: []float64{1}, SA: sparseRows([][]float64{{1}}), Rel: []Rel{LE}, B: []float64{math.NaN()}},
		// Regression: NaN/Inf in C or A used to slip through validation and
		// propagate silently through pricing.
		{C: []float64{math.NaN()}, SA: sparseRows([][]float64{{1}}), Rel: []Rel{LE}, B: []float64{1}},
		{C: []float64{math.Inf(1)}, SA: sparseRows([][]float64{{1}}), Rel: []Rel{LE}, B: []float64{1}},
		{C: []float64{1}, SA: sparseRows([][]float64{{math.NaN()}}), Rel: []Rel{LE}, B: []float64{1}},
		{C: []float64{1, 0}, SA: sparseRows([][]float64{{1, math.Inf(-1)}}), Rel: []Rel{LE}, B: []float64{1}},
		{C: []float64{1}, SA: sparseRows([][]float64{{1}}), Rel: []Rel{LE}, B: []float64{1}, Lower: []float64{math.NaN()}},
		// A [+Inf,+Inf] "interval" is no more solvable than an empty one.
		{C: []float64{1}, SA: sparseRows([][]float64{{1}}), Rel: []Rel{LE}, B: []float64{1}, Lower: []float64{math.Inf(1)}},
		{C: []float64{1}, SA: sparseRows([][]float64{{1}}), Rel: []Rel{LE}, B: []float64{1}, Lower: []float64{math.Inf(-1)}, Upper: []float64{math.Inf(-1)}},
	}
	for i, p := range bad {
		if _, err := Solve(p); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
	}
}

func TestClone(t *testing.T) {
	p := &Problem{
		C: []float64{1, 2}, SA: sparseRows([][]float64{{1, 1}}), Rel: []Rel{LE}, B: []float64{3},
		Lower: []float64{0, 0}, Upper: []float64{5, 5},
	}
	q := p.Clone()
	q.SA[0].V[0] = 99
	q.C[0] = 99
	q.B[0] = 99
	q.Lower[0] = 99
	if p.SA[0].V[0] == 99 || p.C[0] == 99 || p.B[0] == 99 || p.Lower[0] == 99 {
		t.Fatal("Clone is not deep")
	}
}

// referenceBruteForce solves small LPs by enumerating basic solutions of the
// equality form; used to validate the simplex on random instances.
func feasible(p *Problem, x []float64, tol float64) bool {
	for j := range x {
		lo, hi := p.boundsAt(j)
		if x[j] < lo-tol || x[j] > hi+tol {
			return false
		}
	}
	for i := range p.SA {
		v := p.RowDot(i, x)
		switch p.Rel[i] {
		case LE:
			if v > p.B[i]+tol {
				return false
			}
		case GE:
			if v < p.B[i]-tol {
				return false
			}
		case EQ:
			if math.Abs(v-p.B[i]) > tol {
				return false
			}
		}
	}
	return true
}

func TestRandomVsInteriorSamples(t *testing.T) {
	// For random feasible-by-construction LPs, the simplex optimum must be
	// (a) feasible and (b) no worse than a cloud of random feasible points.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(5)
		m := 1 + rng.Intn(5)
		p := &Problem{
			C:     make([]float64, n),
			SA:    make([]SparseRow, m),
			Rel:   make([]Rel, m),
			B:     make([]float64, m),
			Lower: make([]float64, n),
			Upper: make([]float64, n),
		}
		for j := 0; j < n; j++ {
			p.C[j] = rng.NormFloat64()
			p.Lower[j] = 0
			p.Upper[j] = 1 + rng.Float64()*4
		}
		// Random interior point to guarantee feasibility.
		x0 := make([]float64, n)
		for j := range x0 {
			x0[j] = p.Lower[j] + rng.Float64()*(p.Upper[j]-p.Lower[j])
		}
		for i := 0; i < m; i++ {
			row := make([]float64, n)
			v := 0.0
			for j := 0; j < n; j++ {
				row[j] = rng.NormFloat64()
				v += row[j] * x0[j]
			}
			p.SA[i] = DenseRow(row)
			switch rng.Intn(3) {
			case 0:
				p.Rel[i], p.B[i] = LE, v+rng.Float64()
			case 1:
				p.Rel[i], p.B[i] = GE, v-rng.Float64()
			default:
				p.Rel[i], p.B[i] = EQ, v
			}
		}
		sol, err := Solve(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Status != StatusOptimal {
			t.Fatalf("trial %d: status %v (feasible point exists)", trial, sol.Status)
		}
		if !feasible(p, sol.X, 1e-6) {
			t.Fatalf("trial %d: solution infeasible: %v", trial, sol.X)
		}
		// Monte-Carlo lower-bound check: perturb x0 toward random feasible
		// points; none may beat the reported optimum.
		for k := 0; k < 200; k++ {
			cand := make([]float64, n)
			for j := range cand {
				cand[j] = p.Lower[j] + rng.Float64()*(p.Upper[j]-p.Lower[j])
			}
			// Project by blending toward x0 until feasible.
			ok := false
			for blend := 0.0; blend <= 1.0; blend += 0.25 {
				for j := range cand {
					cand[j] = (1-blend)*cand[j] + blend*x0[j]
				}
				if feasible(p, cand, 1e-9) {
					ok = true
					break
				}
			}
			if !ok {
				continue
			}
			obj := 0.0
			for j := range cand {
				obj += p.C[j] * cand[j]
			}
			if obj < sol.Obj-1e-6 {
				t.Fatalf("trial %d: found feasible point with obj %.9f < simplex %.9f", trial, obj, sol.Obj)
			}
		}
	}
}

func TestLargerDenseLP(t *testing.T) {
	// Transportation-style LP with a known optimum: supply 3, demand 3.
	// min sum c_ij x_ij, rows: supply equalities and demand equalities.
	supply := []float64{20, 30, 25}
	demand := []float64{10, 35, 30}
	cost := [][]float64{{2, 3, 1}, {5, 4, 8}, {5, 6, 8}}
	n := 9
	idx := func(i, j int) int { return i*3 + j }
	p := &Problem{C: make([]float64, n)}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			p.C[idx(i, j)] = cost[i][j]
		}
	}
	for i := 0; i < 3; i++ {
		row := make([]float64, n)
		for j := 0; j < 3; j++ {
			row[idx(i, j)] = 1
		}
		p.AddRow(row, EQ, supply[i])
	}
	for j := 0; j < 3; j++ {
		row := make([]float64, n)
		for i := 0; i < 3; i++ {
			row[idx(i, j)] = 1
		}
		p.AddRow(row, EQ, demand[j])
	}
	sol := checkSolve(t, p, StatusOptimal, 300, nil)
	// Verify against exhaustive LP optimum computed by hand:
	// x13=20 (c=1), x22=30 (c=4), x31=10,x32=5,x33=10 => 20+120+50+30+80=300.
	if math.Abs(sol.Obj-300) > 1e-6 {
		t.Fatalf("transportation obj = %v, want 300", sol.Obj)
	}
}

func TestIterationLimit(t *testing.T) {
	p := &Problem{
		C:   []float64{-1, -1, -1},
		SA:  sparseRows([][]float64{{1, 1, 1}}),
		Rel: []Rel{LE},
		B:   []float64{10},
	}
	sol, err := SolveWithOptions(p, Options{MaxIter: 0}) // default is fine
	if err != nil || sol.Status != StatusOptimal {
		t.Fatalf("default opts: %v %v", sol, err)
	}
}

func BenchmarkSimplexDense(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	n, m := 60, 40
	p := &Problem{
		C: make([]float64, n), SA: make([]SparseRow, m),
		Rel: make([]Rel, m), B: make([]float64, m),
		Upper: make([]float64, n), Lower: make([]float64, n),
	}
	for j := 0; j < n; j++ {
		p.C[j] = rng.NormFloat64()
		p.Upper[j] = 10
	}
	for i := 0; i < m; i++ {
		row := make([]float64, n)
		s := 0.0
		for j := range row {
			row[j] = math.Abs(rng.NormFloat64())
			s += row[j]
		}
		p.SA[i], p.Rel[i], p.B[i] = DenseRow(row), LE, s*2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

func TestStatusAndRelStrings(t *testing.T) {
	cases := map[string]string{
		LE.String(): "<=", EQ.String(): "==", GE.String(): ">=",
		StatusOptimal.String():    "optimal",
		StatusInfeasible.String(): "infeasible",
		StatusUnbounded.String():  "unbounded",
		StatusIterLimit.String():  "iteration-limit",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	if Rel(9).String() == "" || Status(9).String() == "" {
		t.Error("unknown values should still print")
	}
}

// TestLargeLPTriggersRefactorisation runs a dense LP big enough to exceed
// the 128-pivot refactorisation threshold, exercising the numerical
// stabilisation path, and validates optimality against random feasible
// points.
func TestLargeLPTriggersRefactorisation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n, m := 120, 80
	p := &Problem{
		C: make([]float64, n), SA: make([]SparseRow, m),
		Rel: make([]Rel, m), B: make([]float64, m),
		Lower: make([]float64, n), Upper: make([]float64, n),
	}
	x0 := make([]float64, n)
	for j := 0; j < n; j++ {
		p.C[j] = rng.NormFloat64()
		p.Upper[j] = 3
		x0[j] = rng.Float64() * 3
	}
	for i := 0; i < m; i++ {
		row := make([]float64, n)
		v := 0.0
		for j := range row {
			row[j] = rng.NormFloat64()
			v += row[j] * x0[j]
		}
		p.SA[i] = DenseRow(row)
		if i%3 == 0 {
			p.Rel[i], p.B[i] = EQ, v
		} else if i%3 == 1 {
			p.Rel[i], p.B[i] = LE, v+rng.Float64()
		} else {
			p.Rel[i], p.B[i] = GE, v-rng.Float64()
		}
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status %v", sol.Status)
	}
	if sol.Iterations < 128 {
		t.Logf("only %d iterations; refresh path may not have fired", sol.Iterations)
	}
	if !feasible(p, sol.X, 1e-5) {
		t.Fatal("solution infeasible")
	}
	// x0 is feasible by construction; the optimum cannot be worse.
	obj0 := 0.0
	for j := range x0 {
		obj0 += p.C[j] * x0[j]
	}
	if sol.Obj > obj0+1e-6 {
		t.Fatalf("optimum %v worse than known feasible %v", sol.Obj, obj0)
	}
}

func TestIterationLimitStatus(t *testing.T) {
	// A tiny iteration budget must surface StatusIterLimit, not hang.
	rng := rand.New(rand.NewSource(17))
	n, m := 40, 30
	p := &Problem{
		C: make([]float64, n), SA: make([]SparseRow, m),
		Rel: make([]Rel, m), B: make([]float64, m),
		Upper: make([]float64, n), Lower: make([]float64, n),
	}
	x0 := make([]float64, n)
	for j := 0; j < n; j++ {
		p.C[j] = rng.NormFloat64()
		p.Upper[j] = 2
		x0[j] = rng.Float64() * 2
	}
	for i := 0; i < m; i++ {
		row := make([]float64, n)
		v := 0.0
		for j := range row {
			row[j] = rng.NormFloat64()
			v += row[j] * x0[j]
		}
		p.SA[i], p.Rel[i], p.B[i] = DenseRow(row), EQ, v
	}
	sol, err := SolveWithOptions(p, Options{MaxIter: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusIterLimit {
		t.Fatalf("status %v, want iteration-limit", sol.Status)
	}
	if sol.Duals != nil {
		t.Fatal("iteration-limited solve must not report duals")
	}
}

// TestConcurrentSolvesSharedProblem exercises the documented reentrancy
// guarantee: many goroutines solving the SAME Problem value concurrently
// must all find the same optimum without data races (run under -race).
func TestConcurrentSolvesSharedProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n, m := 12, 8
	p := &Problem{
		C: make([]float64, n), SA: make([]SparseRow, m),
		Rel: make([]Rel, m), B: make([]float64, m),
		Upper: make([]float64, n),
	}
	for j := 0; j < n; j++ {
		p.C[j] = rng.NormFloat64()
		p.Upper[j] = 3
	}
	for i := 0; i < m; i++ {
		row := make([]float64, n)
		s := 0.0
		for j := range row {
			row[j] = rng.Float64()
			s += row[j]
		}
		p.SA[i], p.Rel[i], p.B[i] = DenseRow(row), LE, s*1.5
	}
	ref, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Status != StatusOptimal {
		t.Fatalf("reference status %v", ref.Status)
	}
	const G = 16
	objs := make([]float64, G)
	errs := make([]error, G)
	done := make(chan int, G)
	for g := 0; g < G; g++ {
		go func(g int) {
			sol, err := Solve(p)
			if err == nil && sol.Status != StatusOptimal {
				err = errors.New("not optimal")
			}
			if err == nil {
				objs[g] = sol.Obj
			}
			errs[g] = err
			done <- g
		}(g)
	}
	for g := 0; g < G; g++ {
		<-done
	}
	for g := 0; g < G; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if math.Abs(objs[g]-ref.Obj) > eps {
			t.Fatalf("goroutine %d obj %.9f, want %.9f", g, objs[g], ref.Obj)
		}
	}
}
