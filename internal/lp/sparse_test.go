package lp

import (
	"math"
	"math/rand"
	"testing"
)

// randomMixedLP builds a random LP with structural sparsity and a mix of row
// relations and bound shapes, so the fuzz hits optimal, infeasible, and
// unbounded outcomes.
func randomMixedLP(rng *rand.Rand, n, m int) *Problem {
	p := &Problem{
		C:     make([]float64, n),
		Lower: make([]float64, n),
		Upper: make([]float64, n),
	}
	for j := 0; j < n; j++ {
		p.C[j] = rng.Float64()*2 - 1
		switch {
		case rng.Float64() < 0.05:
			p.Lower[j] = math.Inf(-1)
			p.Upper[j] = math.Inf(1)
		case rng.Float64() < 0.15:
			p.Lower[j] = -1
			p.Upper[j] = 5
		case rng.Float64() < 0.15:
			p.Upper[j] = math.Inf(1)
		default:
			p.Upper[j] = 1 + 4*rng.Float64()
		}
	}
	for i := 0; i < m; i++ {
		p.AddRow(randomSparseRow(rng, n), randomRel(rng), rng.Float64()*3-1)
	}
	return p
}

// randomSparseRow draws a dense row with about 40% nonzeros, at least one.
func randomSparseRow(rng *rand.Rand, n int) []float64 {
	row := make([]float64, n)
	nzCount := 0
	for j := 0; j < n; j++ {
		if rng.Float64() < 0.4 {
			row[j] = rng.Float64()*4 - 2
			nzCount++
		}
	}
	if nzCount == 0 {
		row[rng.Intn(n)] = 1
	}
	return row
}

// randomRel draws LE, GE or EQ with probabilities 0.60, 0.25 and 0.15.
func randomRel(rng *rand.Rand) Rel {
	switch r := rng.Float64(); {
	case r < 0.25:
		return GE
	case r < 0.40:
		return EQ
	}
	return LE
}

// certifyFarkas checks that y is a valid infeasibility certificate for p:
// with the rows written as Ax + s = b (s ≥ 0 for LE, s ≤ 0 for GE, s = 0 for
// EQ), yᵀb must strictly exceed the supremum of yᵀ(Ax + s) over the variable
// bounds and slack sign domains — which requires the slack terms' sup to be
// finite (sign conditions on y) and the bound terms' sup finite too.
func certifyFarkas(t *testing.T, p *Problem, y []float64) {
	t.Helper()
	n := p.NumVars()
	if len(y) != p.NumRows() {
		t.Fatalf("ray length %d for %d rows", len(y), p.NumRows())
	}
	v := make([]float64, n)
	for i := range p.SA {
		r := &p.SA[i]
		for k, j := range r.Ix {
			v[j] += y[i] * r.V[k]
		}
	}
	const tol = 1e-9
	sup := 0.0
	for j := 0; j < n; j++ {
		lo, hi := p.boundsAt(j)
		switch {
		case v[j] > tol:
			if math.IsInf(hi, 1) {
				t.Fatalf("ray not certified: v[%d]=%g with infinite upper bound", j, v[j])
			}
			sup += v[j] * hi
		case v[j] < -tol:
			if math.IsInf(lo, -1) {
				t.Fatalf("ray not certified: v[%d]=%g with infinite lower bound", j, v[j])
			}
			sup += v[j] * lo
		}
	}
	for i := 0; i < p.NumRows(); i++ {
		switch p.Rel[i] {
		case LE:
			if y[i] > tol {
				t.Fatalf("ray not certified: y[%d]=%g > 0 on a LE row (slack sup infinite)", i, y[i])
			}
		case GE:
			if y[i] < -tol {
				t.Fatalf("ray not certified: y[%d]=%g < 0 on a GE row (slack sup infinite)", i, y[i])
			}
		}
	}
	lhs := 0.0
	for i, b := range p.B {
		lhs += y[i] * b
	}
	if lhs <= sup+1e-9 {
		t.Fatalf("ray fails to separate: yᵀb=%g vs achievable sup %g", lhs, sup)
	}
}

// certifyOptimal checks the KKT conditions of an optimal solution from p's
// data alone, without trusting the solver's pivots:
//   - primal feasibility: X within its bounds and every row satisfied;
//   - dual feasibility: each row dual y_i (Duals, dObj/dB_i) has the sign
//     of its relation (≤ 0 on LE rows, ≥ 0 on GE rows) and vanishes on a
//     slack row, and each reduced cost d_j = c_j − Σ_i y_i·A_ij has the
//     sign of the bound x_j rests on (0 strictly between its bounds);
//   - strong duality: cᵀx equals the dual objective yᵀb + Σ_j d_j·x_j,
//     where every d_j clear of zero multiplies a finite bound.
func certifyOptimal(t *testing.T, p *Problem, sol *Solution) {
	t.Helper()
	const tol = 1e-7
	n, m := p.NumVars(), p.NumRows()
	x, y := sol.X, sol.Duals
	if len(x) != n || len(y) != m {
		t.Fatalf("optimum with %d values and %d duals for %d vars, %d rows", len(x), len(y), n, m)
	}
	xScale := 1.0
	for j := 0; j < n; j++ {
		xScale = math.Max(xScale, math.Abs(x[j]))
		lo, hi := p.boundsAt(j)
		if x[j] < lo-tol*(1+math.Abs(lo)) || x[j] > hi+tol*(1+math.Abs(hi)) {
			t.Fatalf("x[%d]=%g outside [%g, %g]", j, x[j], lo, hi)
		}
	}
	d := append([]float64(nil), p.C...)
	for i := 0; i < m; i++ {
		act := p.RowDot(i, x)
		rowTol := tol * (1 + math.Abs(p.B[i]) + p.RowAbsSum(i)*xScale)
		slack := p.B[i] - act
		switch p.Rel[i] {
		case LE:
			if slack < -rowTol {
				t.Fatalf("row %d: %g ≤ %g violated", i, act, p.B[i])
			}
			if y[i] > tol {
				t.Fatalf("row %d: LE dual %g > 0", i, y[i])
			}
		case GE:
			if slack > rowTol {
				t.Fatalf("row %d: %g ≥ %g violated", i, act, p.B[i])
			}
			if y[i] < -tol {
				t.Fatalf("row %d: GE dual %g < 0", i, y[i])
			}
		case EQ:
			if math.Abs(slack) > rowTol {
				t.Fatalf("row %d: %g = %g violated", i, act, p.B[i])
			}
		}
		if math.Abs(slack) > rowTol && math.Abs(y[i]) > tol {
			t.Fatalf("row %d: slack %g with nonzero dual %g", i, slack, y[i])
		}
		r := &p.SA[i]
		for k, j := range r.Ix {
			d[j] -= y[i] * r.V[k]
		}
	}
	dualObj := 0.0
	for i, b := range p.B {
		dualObj += y[i] * b
	}
	for j := 0; j < n; j++ {
		lo, hi := p.boundsAt(j)
		atLo := x[j] <= lo+tol*(1+math.Abs(lo))
		atHi := x[j] >= hi-tol*(1+math.Abs(hi))
		switch {
		case d[j] > tol && !atLo:
			t.Fatalf("x[%d]=%g above its lower bound %g with reduced cost %g > 0", j, x[j], lo, d[j])
		case d[j] < -tol && !atHi:
			t.Fatalf("x[%d]=%g below its upper bound %g with reduced cost %g < 0", j, x[j], hi, d[j])
		case d[j] > tol:
			dualObj += d[j] * lo
		case d[j] < -tol:
			dualObj += d[j] * hi
		default:
			dualObj += d[j] * x[j]
		}
	}
	if gap := math.Abs(sol.Obj - dualObj); gap > tol*(1+math.Abs(sol.Obj)) {
		t.Fatalf("duality gap %g: primal %.12g, dual %.12g", gap, sol.Obj, dualObj)
	}
}

// TestSparseDenseAgreementFuzz solves 120 random LPs and certifies every
// verdict independently of the solver: each optimum by its KKT conditions
// (certifyOptimal) and each infeasible verdict by its Farkas ray.
func TestSparseDenseAgreementFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	statusCount := map[Status]int{}
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(19)
		m := 1 + rng.Intn(14)
		p := randomMixedLP(rng, n, m)
		sol, err := Solve(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		statusCount[sol.Status]++
		switch sol.Status {
		case StatusOptimal:
			certifyOptimal(t, p, sol)
		case StatusInfeasible:
			if sol.FarkasRay == nil {
				t.Fatalf("trial %d: infeasible without a Farkas ray", trial)
			}
			certifyFarkas(t, p, sol.FarkasRay)
		}
	}
	// The generator must actually exercise more than one outcome class.
	if statusCount[StatusOptimal] == 0 || len(statusCount) < 2 {
		t.Fatalf("fuzz generator degenerate: statuses %v", statusCount)
	}
	t.Logf("statuses %v", statusCount)
}

// TestValidateRejectsRaggedDenseRow: a dense row wider than the variable
// count, added through AddRow, names a column that does not exist.
func TestValidateRejectsRaggedDenseRow(t *testing.T) {
	p := &Problem{C: []float64{1, 1}}
	p.AddRow([]float64{1, 1}, LE, 1)
	p.AddRow([]float64{1, 0, 1}, LE, 1) // second row ragged
	if err := p.Validate(); err == nil {
		t.Fatal("want ragged-row error")
	}
	if _, err := Solve(p); err == nil {
		t.Fatal("Solve must surface the ragged-row error")
	}
}

func TestValidateSparseErrors(t *testing.T) {
	base := func() *Problem {
		return &Problem{
			C:   []float64{1, 1, 1},
			SA:  []SparseRow{{Ix: []int{0, 2}, V: []float64{1, -1}}},
			Rel: []Rel{LE},
			B:   []float64{1},
		}
	}
	ok := base()
	if err := ok.Validate(); err != nil {
		t.Fatalf("well-formed sparse problem rejected: %v", err)
	}

	ragged := base()
	ragged.SA[0].V = ragged.SA[0].V[:1]
	if err := ragged.Validate(); err == nil {
		t.Fatal("want Ix/V length mismatch error")
	}

	unsorted := base()
	unsorted.SA[0] = SparseRow{Ix: []int{2, 0}, V: []float64{1, 1}}
	if err := unsorted.Validate(); err == nil {
		t.Fatal("want non-increasing index error")
	}

	dup := base()
	dup.SA[0] = SparseRow{Ix: []int{1, 1}, V: []float64{1, 1}}
	if err := dup.Validate(); err == nil {
		t.Fatal("want duplicate-index error")
	}

	oob := base()
	oob.SA[0] = SparseRow{Ix: []int{0, 3}, V: []float64{1, 1}}
	if err := oob.Validate(); err == nil {
		t.Fatal("want out-of-range index error")
	}

	nan := base()
	nan.SA[0] = SparseRow{Ix: []int{0}, V: []float64{math.NaN()}}
	if err := nan.Validate(); err == nil {
		t.Fatal("want NaN coefficient error")
	}

	mismatch := base()
	mismatch.B = append(mismatch.B, 2)
	mismatch.Rel = append(mismatch.Rel, LE)
	if err := mismatch.Validate(); err == nil {
		t.Fatal("want row-count mismatch error")
	}
}

func TestNewSparseRowNormalises(t *testing.T) {
	r := NewSparseRow([]int{3, 1, 3, 2, 0}, []float64{1, 2, -1, 0, 4})
	// Column 3 cancels to zero and column 2 is an explicit zero; both drop.
	wantIx := []int{0, 1}
	wantV := []float64{4, 2}
	if len(r.Ix) != len(wantIx) {
		t.Fatalf("got %v/%v", r.Ix, r.V)
	}
	for k := range wantIx {
		if r.Ix[k] != wantIx[k] || r.V[k] != wantV[k] {
			t.Fatalf("entry %d: got (%d,%v) want (%d,%v)", k, r.Ix[k], r.V[k], wantIx[k], wantV[k])
		}
	}
}

// TestRowHelpersAgreeAcrossRepresentations checks NNZ, RowDot and RowAbsSum
// on rows stored through AddRow against the same sums taken over the dense
// rows they were built from.
func TestRowHelpersAgreeAcrossRepresentations(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n, m = 12, 8
	p := &Problem{C: make([]float64, n)}
	dense := make([][]float64, m)
	nnz := 0
	for i := range dense {
		dense[i] = randomSparseRow(rng, n)
		p.AddRow(dense[i], LE, 1)
		for _, a := range dense[i] {
			if a != 0 {
				nnz++
			}
		}
	}
	if p.NNZ() != nnz {
		t.Fatalf("NNZ %d, want %d", p.NNZ(), nnz)
	}
	x := make([]float64, n)
	for j := range x {
		x[j] = rng.Float64()*2 - 1
	}
	for i, row := range dense {
		dot, abs := 0.0, 0.0
		for j, a := range row {
			dot += a * x[j]
			abs += math.Abs(a)
		}
		if got := p.RowDot(i, x); math.Abs(got-dot) > 1e-12 {
			t.Fatalf("RowDot(%d): %v, want %v", i, got, dot)
		}
		if got := p.RowAbsSum(i); math.Abs(got-abs) > 1e-12 {
			t.Fatalf("RowAbsSum(%d): %v, want %v", i, got, abs)
		}
	}
}

// TestAddRowAndAddSparseRowEquivalent: the same two rows given once densely
// and once as (index, value) pairs — unsorted, with a duplicate column —
// must store identical sparse rows and solve identically.
func TestAddRowAndAddSparseRowEquivalent(t *testing.T) {
	mk := func() *Problem {
		return &Problem{
			C:     []float64{1, 2, 3},
			Lower: make([]float64, 3),
			Upper: []float64{4, 4, 4},
		}
	}
	d, s := mk(), mk()
	d.AddRow([]float64{1, 0, -1}, LE, 2)
	d.AddRow([]float64{2, 0, 1}, GE, 1)
	s.AddSparseRow([]int{2, 0}, []float64{-1, 1}, LE, 2)
	s.AddSparseRow([]int{2, 0, 0}, []float64{1, 1, 1}, GE, 1)
	for _, p := range []*Problem{d, s} {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if d.NumRows() != 2 || s.NumRows() != 2 {
		t.Fatalf("rows %d/%d, want 2", d.NumRows(), s.NumRows())
	}
	for i := range d.SA {
		a, b := d.SA[i], s.SA[i]
		if len(a.Ix) != len(b.Ix) {
			t.Fatalf("row %d: %+v vs %+v", i, a, b)
		}
		for k := range a.Ix {
			if a.Ix[k] != b.Ix[k] || a.V[k] != b.V[k] {
				t.Fatalf("row %d: %+v vs %+v", i, a, b)
			}
		}
	}
	sd, err := Solve(d)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	if sd.Status != ss.Status || sd.Obj != ss.Obj {
		t.Fatalf("(%v, %v) vs (%v, %v)", sd.Status, sd.Obj, ss.Status, ss.Obj)
	}
}

// TestSolutionCounters checks the pricing instrumentation on a 60-variable
// LP: candidate-list pricing serves pivots from the list and sweeps fewer
// times than it pivots, and NNZ reports the problem's structural nonzeros.
func TestSolutionCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	p := randomLP(rng, 60, 30)
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status %v", sol.Status)
	}
	if sol.NNZ == 0 || sol.NNZ != p.NNZ() {
		t.Fatalf("NNZ %d, problem has %d", sol.NNZ, p.NNZ())
	}
	if sol.CandidateHits == 0 {
		t.Fatal("candidate pricing never drew from the list on a 60-var LP")
	}
	if sol.PricingSweeps >= sol.Iterations {
		t.Fatalf("%d sweeps for %d pivots", sol.PricingSweeps, sol.Iterations)
	}
}

func TestFarkasRaySparseBacked(t *testing.T) {
	// x ≥ 5 and x ≤ 3 with x ∈ [0, 10]: infeasible, as in the dense test.
	p := &Problem{
		C:     []float64{0},
		SA:    []SparseRow{{Ix: []int{0}, V: []float64{1}}, {Ix: []int{0}, V: []float64{1}}},
		Rel:   []Rel{GE, LE},
		B:     []float64{5, 3},
		Upper: []float64{10},
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusInfeasible || sol.FarkasRay == nil {
		t.Fatalf("want infeasible with ray, got %+v", sol)
	}
	certifyFarkas(t, p, sol.FarkasRay)
}

// BenchmarkSolveAllocs measures steady-state allocations per solve: the
// pooled solver should reuse its scratch (basis inverse rows, pricing
// vectors, CSC buffers) so per-solve allocations stay small and constant in
// the problem size after warmup.
func BenchmarkSolveAllocs(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	p := randomLP(rng, 80, 40)
	if sol, err := Solve(p); err != nil || sol.Status != StatusOptimal {
		b.Fatalf("%v %v", sol, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}
