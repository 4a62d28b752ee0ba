package lp

import (
	"math"
	"math/rand"
	"testing"

	"rentplan/internal/num"
)

// srrpShapedLP builds the LP relaxation of a random lot-sizing tree of nv
// vertices, the structure the SRRP models hand the solver: per vertex v the
// columns (α_v, β_v, χ_v), a balance row α_v + β_parent − β_v = d_v, a
// forcing row α_v − M·χ_v ≤ 0 and the valid inequality α_v − β_v − d_v·χ_v
// ≤ 0 (β_parent dropped), with χ_v ∈ [0, 1].
func srrpShapedLP(rng *rand.Rand, nv int) *Problem {
	n := 3 * nv
	p := &Problem{C: make([]float64, n), Upper: make([]float64, n)}
	const bigM = 50
	for v := 0; v < nv; v++ {
		a, b, x := 3*v, 3*v+1, 3*v+2
		p.C[a], p.C[b], p.C[x] = 1+rng.Float64(), 0.1*rng.Float64(), 5*rng.Float64()
		p.Upper[a], p.Upper[b], p.Upper[x] = math.Inf(1), math.Inf(1), 1
		d := 1 + 4*rng.Float64()
		if v == 0 {
			p.AddSparseRow([]int{a, b}, []float64{1, -1}, EQ, d)
		} else {
			par := rng.Intn(v)
			p.AddSparseRow([]int{a, 3*par + 1, b}, []float64{1, 1, -1}, EQ, d)
		}
		p.AddSparseRow([]int{a, x}, []float64{1, -bigM}, LE, 0)
		p.AddSparseRow([]int{a, b, x}, []float64{1, -1, -d}, LE, 0)
	}
	return p
}

// basisMatrix returns the dense m×m matrix of the basis columns s.basis.
func basisMatrix(s *simplex) [][]float64 {
	B := make([][]float64, s.m)
	col := make([]float64, s.m)
	for i := range B {
		B[i] = make([]float64, s.m)
	}
	for k, j := range s.basis {
		s.colInto(j, col)
		for i := range col {
			B[i][k] = col[i]
		}
	}
	return B
}

func copyMatrix(a [][]float64) [][]float64 {
	out := make([][]float64, len(a))
	for i, row := range a {
		out[i] = append([]float64(nil), row...)
	}
	return out
}

// randomBasis starts from a unit basis (each row's slack or artificial) and
// swaps a random number of rows to a structural column with a nonzero in
// that row, which keeps most draws nonsingular.
func randomBasis(rng *rand.Rand, s *simplex) []int {
	cols := make([]int, s.m)
	basic := map[int]bool{}
	for i := range cols {
		cols[i] = s.n + i
		if rng.Intn(4) == 0 {
			cols[i] = s.nTot + i
		}
	}
	c := &s.csc
	for swaps := rng.Intn(s.m + 1); swaps > 0; swaps-- {
		j := rng.Intn(s.n)
		if basic[j] || c.colPtr[j] == c.colPtr[j+1] {
			continue
		}
		t := c.colPtr[j] + int32(rng.Intn(int(c.colPtr[j+1]-c.colPtr[j])))
		i := int(c.rowIdx[t])
		delete(basic, cols[i])
		cols[i] = j
		basic[j] = true
	}
	return cols
}

// TestPeelMatchesDenseInverse inverts bases of SRRP-shaped, random sparse
// and random dense LPs twice — by the triangular peel and by dense
// Gauss–Jordan — and requires both inverses to agree within num.FeasTol
// (relative to the inverse's magnitude), and the dense one to invert B.
// The bases are the LPs' optimal bases, random column subsets mixing
// structural, slack and artificial columns, and all-structural bases of the
// dense LPs, whose irreducible cores the peel declines: those bail-outs,
// where the dense inverse alone serves, are exercised and counted too.
func TestPeelMatchesDenseInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(1212))
	agreed, bailed, singular := 0, 0, 0
	for trial := 0; trial < 300; trial++ {
		var p *Problem
		switch trial % 3 {
		case 0:
			p = srrpShapedLP(rng, 3+rng.Intn(14))
		case 1:
			p = randomMixedLP(rng, 4+rng.Intn(16), 3+rng.Intn(12))
		default:
			m := 3 + rng.Intn(12)
			p = randomLP(rng, m+rng.Intn(8), m) // fully dense rows
		}
		s := newSimplex(p, Options{}.withDefaults(p.NumRows(), p.NumVars()))
		var cols []int
		switch {
		case trial%4 == 0:
			if sol, err := Solve(p); err == nil && sol.Basis != nil {
				cols = sol.Basis.Columns
			}
		case trial%3 == 2:
			// m structural columns of a dense matrix: the whole basis is
			// one irreducible core, which the peel declines.
			cols = rng.Perm(s.n)[:s.m]
		}
		if cols == nil {
			cols = randomBasis(rng, s)
		}
		for i := range s.artSgn {
			s.artSgn[i] = 1
			if rng.Intn(2) == 0 {
				s.artSgn[i] = -1
			}
		}
		for i, j := range cols {
			if j < 0 {
				j = s.nTot + i // dependent row: its artificial stays basic
			}
			s.basis[i] = j
		}
		B := basisMatrix(s)
		peelOK := s.invertBasisPeel()
		peel := copyMatrix(s.binv)
		denseOK := s.invertBasisDense()
		dense := copyMatrix(s.binv)
		switch {
		case !denseOK:
			singular++
			s.release()
			continue
		case !peelOK:
			bailed++
		default:
			agreed++
			scale := 1.0
			for _, row := range dense {
				for _, v := range row {
					scale = math.Max(scale, math.Abs(v))
				}
			}
			for i := range dense {
				for k := range dense[i] {
					if math.Abs(peel[i][k]-dense[i][k]) > num.FeasTol*scale {
						t.Fatalf("trial %d: B⁻¹[%d][%d] peel %g, dense %g", trial, i, k, peel[i][k], dense[i][k])
					}
				}
			}
		}
		// B⁻¹·B = I for the dense inverse, which owns every nonsingular case.
		for i := range dense {
			for k := range dense {
				v := 0.0
				for r := range dense {
					v += dense[i][r] * B[r][k]
				}
				want := 0.0
				if i == k {
					want = 1
				}
				if math.Abs(v-want) > num.FeasTol*(1+math.Abs(dense[i][i])) {
					t.Fatalf("trial %d: (B⁻¹B)[%d][%d] = %g", trial, i, k, v)
				}
			}
		}
		s.release()
	}
	if agreed < 50 || bailed < 10 {
		t.Fatalf("coverage too thin: %d peeled, %d peel bail-outs, %d singular", agreed, bailed, singular)
	}
	t.Logf("peeled=%d bail-outs=%d singular=%d", agreed, bailed, singular)
}
