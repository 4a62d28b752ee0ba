package core

import (
	"math"

	"rentplan/internal/lp"
)

// Small helpers shared by the MILP builders.

const (
	leRel = lp.LE
	eqRel = lp.EQ
	geRel = lp.GE
)

// newLP allocates an LP with nv variables, default bounds [0, +Inf), and
// no rows yet.
func newLP(nv int) *lp.Problem {
	p := &lp.Problem{
		C:     make([]float64, nv),
		Lower: make([]float64, nv),
		Upper: make([]float64, nv),
	}
	for j := range p.Upper {
		p.Upper[j] = math.Inf(1)
	}
	return p
}

// nz is one structural nonzero of a constraint row under construction.
type nz struct {
	j int
	v float64
}

// addRowNZ appends one constraint row from its nonzeros, allocating O(nnz)
// per row. Entries may arrive in any order; duplicates are summed and exact
// zeros dropped by the normalisation in lp.NewSparseRow.
func addRowNZ(p *lp.Problem, rel lp.Rel, rhs float64, ents ...nz) {
	ix := make([]int, len(ents))
	v := make([]float64, len(ents))
	for t, e := range ents {
		ix[t], v[t] = e.j, e.v
	}
	p.AddSparseRow(ix, v, rel, rhs)
}
