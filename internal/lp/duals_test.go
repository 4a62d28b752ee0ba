package lp

import (
	"math"
	"math/rand"
	"testing"
)

// TestDualsAreShadowPrices verifies Duals numerically: perturbing B[i] by a
// small δ changes the optimal objective by ≈ Duals[i]·δ.
func TestDualsAreShadowPrices(t *testing.T) {
	p := &Problem{
		C:   []float64{-1, -1},
		SA:  sparseRows([][]float64{{1, 2}, {3, 1}}),
		Rel: []Rel{LE, LE},
		B:   []float64{4, 6},
	}
	sol, err := Solve(p)
	if err != nil || sol.Status != StatusOptimal {
		t.Fatalf("%v %v", sol, err)
	}
	if sol.Duals == nil {
		t.Fatal("no duals returned")
	}
	const delta = 1e-5
	for i := range p.B {
		q := p.Clone()
		q.B[i] += delta
		sol2, err := Solve(q)
		if err != nil || sol2.Status != StatusOptimal {
			t.Fatalf("perturbed solve: %v %v", sol2, err)
		}
		got := (sol2.Obj - sol.Obj) / delta
		if math.Abs(got-sol.Duals[i]) > 1e-4 {
			t.Fatalf("row %d: dObj/dB = %v, Duals = %v", i, got, sol.Duals[i])
		}
	}
}

func TestDualsRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(4)
		m := 2 + rng.Intn(3)
		p := &Problem{
			C:     make([]float64, n),
			SA:    make([]SparseRow, m),
			Rel:   make([]Rel, m),
			B:     make([]float64, m),
			Upper: make([]float64, n),
			Lower: make([]float64, n),
		}
		x0 := make([]float64, n)
		for j := 0; j < n; j++ {
			p.C[j] = rng.NormFloat64()
			p.Upper[j] = 2 + rng.Float64()*3
			x0[j] = rng.Float64() * p.Upper[j]
		}
		for i := 0; i < m; i++ {
			row := make([]float64, n)
			v := 0.0
			for j := range row {
				row[j] = rng.NormFloat64()
				v += row[j] * x0[j]
			}
			p.SA[i] = DenseRow(row)
			if rng.Intn(2) == 0 {
				p.Rel[i], p.B[i] = LE, v+0.5+rng.Float64()
			} else {
				p.Rel[i], p.B[i] = GE, v-0.5-rng.Float64()
			}
		}
		sol, err := Solve(p)
		if err != nil || sol.Status != StatusOptimal {
			continue
		}
		const delta = 1e-6
		for i := range p.B {
			q := p.Clone()
			q.B[i] += delta
			sol2, err := Solve(q)
			if err != nil || sol2.Status != StatusOptimal {
				continue
			}
			got := (sol2.Obj - sol.Obj) / delta
			// Degenerate optima can kink; allow a loose comparison and skip
			// rows where the two one-sided derivatives differ.
			q2 := p.Clone()
			q2.B[i] -= delta
			sol3, err := Solve(q2)
			if err != nil || sol3.Status != StatusOptimal {
				continue
			}
			other := (sol.Obj - sol3.Obj) / delta
			if math.Abs(got-other) > 1e-3 {
				continue // kink: dual is a subgradient, skip
			}
			if math.Abs(got-sol.Duals[i]) > 1e-3 {
				t.Fatalf("trial %d row %d: dObj/dB = %v, Duals = %v", trial, i, got, sol.Duals[i])
			}
		}
	}
}

// TestFarkasRaySeparates: for an infeasible system, the returned ray gives
// yᵀb > 0-side violation while any feasible b' satisfies yᵀb' ≤ yᵀ(Ax) for
// feasible x. We check the operational property used by Benders: the ray
// "scores" the infeasible rhs strictly above every feasible rhs obtained by
// relaxation.
func TestFarkasRaySeparates(t *testing.T) {
	// x ≥ 5 and x ≤ 3 with x ∈ [0, 10]: infeasible.
	p := &Problem{
		C:     []float64{0},
		SA:    sparseRows([][]float64{{1}, {1}}),
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
	y := sol.FarkasRay
	score := func(b []float64) float64 {
		s := 0.0
		for i := range b {
			s += y[i] * b[i]
		}
		return s
	}
	infeasScore := score(p.B)
	// Feasible variants: lower the GE rhs below the LE rhs.
	for _, b := range [][]float64{{3, 3}, {2, 3}, {0, 5}, {1, 9}} {
		if score(b) >= infeasScore-1e-9 {
			t.Fatalf("ray fails to separate feasible rhs %v: %v vs %v", b, score(b), infeasScore)
		}
	}
	// Optimal solves must not carry a ray.
	p2 := &Problem{C: []float64{1}, SA: sparseRows([][]float64{{1}}), Rel: []Rel{GE}, B: []float64{1}}
	sol2, _ := Solve(p2)
	if sol2.FarkasRay != nil {
		t.Fatal("optimal solve returned a Farkas ray")
	}
	if sol2.Duals == nil {
		t.Fatal("optimal solve missing duals")
	}
}
