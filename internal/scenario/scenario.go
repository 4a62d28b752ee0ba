// Package scenario builds the multistage scenario trees of SRRP
// (Sec. IV-C/IV-D): the spot-price base distribution of a historical window
// is truncated at the ASP's bid price, the residual mass is collapsed onto
// an out-of-bid state priced at the on-demand rate λ (Eq. 10), and the
// resulting per-stage state distributions are expanded into a perfectly
// balanced multistage tree whose vertices carry absolute probabilities.
package scenario

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"rentplan/internal/stats"
)

// Tree is a multistage scenario tree. Vertices are stored in topological
// order (parents before children); vertex 0 is the root (the current state
// of the world, stage 0).
type Tree struct {
	Parent   []int     // Parent[0] = -1
	Prob     []float64 // absolute probability p_v (sums to 1 per stage)
	Stage    []int     // τ(v): 0 for the root
	Price    []float64 // spot price of the state (λ for out-of-bid states)
	OutOfBid []bool    // true when the state is the out-of-bid event
}

// N returns the vertex count.
func (t *Tree) N() int { return len(t.Parent) }

// Stages returns the number of stages including the root stage.
func (t *Tree) Stages() int {
	max := 0
	for _, s := range t.Stage {
		if s > max {
			max = s
		}
	}
	return max + 1
}

// Leaves returns the indices of the final-stage vertices; each leaf
// identifies one scenario (its root path).
func (t *Tree) Leaves() []int {
	last := t.Stages() - 1
	var out []int
	for v, s := range t.Stage {
		if s == last {
			out = append(out, v)
		}
	}
	return out
}

// Path returns the root→v vertex sequence.
func (t *Tree) Path(v int) []int {
	var rev []int
	for u := v; u != -1; u = t.Parent[u] {
		rev = append(rev, u)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Validate checks structural invariants: topological parent order, stage
// increments, per-stage probability mass 1, and positive prices.
func (t *Tree) Validate() error {
	n := t.N()
	if n == 0 {
		return errors.New("scenario: empty tree")
	}
	if len(t.Prob) != n || len(t.Stage) != n || len(t.Price) != n || len(t.OutOfBid) != n {
		return errors.New("scenario: slice length mismatch")
	}
	if t.Parent[0] != -1 || t.Stage[0] != 0 {
		return errors.New("scenario: vertex 0 must be the stage-0 root")
	}
	// A valid stage is at most one past the deepest seen so far (the root
	// is stage 0 and each vertex one below its parent), so the per-stage
	// mass grows by appending. The mass is checked in stage order, so the
	// lowest failing stage is the one reported.
	var buf [16]float64
	mass := buf[:0]
	for v := 0; v < n; v++ {
		if v > 0 {
			pa := t.Parent[v]
			if pa < 0 || pa >= v {
				return fmt.Errorf("scenario: vertex %d parent %d breaks topological order", v, pa)
			}
			if t.Stage[v] != t.Stage[pa]+1 {
				return fmt.Errorf("scenario: vertex %d stage %d, parent stage %d", v, t.Stage[v], t.Stage[pa])
			}
		}
		if t.Prob[v] <= 0 || t.Prob[v] > 1+1e-9 {
			return fmt.Errorf("scenario: vertex %d probability %g", v, t.Prob[v])
		}
		if t.Price[v] <= 0 {
			return fmt.Errorf("scenario: vertex %d price %g", v, t.Price[v])
		}
		if t.Stage[v] == len(mass) {
			mass = append(mass, 0)
		}
		mass[t.Stage[v]] += t.Prob[v]
	}
	for s, m := range mass {
		if m < 1-1e-6 || m > 1+1e-6 {
			return fmt.Errorf("scenario: stage %d probability mass %g != 1", s, m)
		}
	}
	return nil
}

// BidAdjusted applies the paper's bid-dependent dynamic sampling (Eq. 10):
// states of the base distribution with price ≤ bid keep their probability;
// the remaining mass becomes an out-of-bid state priced at the on-demand
// rate λ. The returned distribution is renormalised to exactly unit mass,
// and outOfBidProb reports the mass of the λ state (0 if none).
func BidAdjusted(base stats.Discrete, bid, onDemand float64) (d stats.Discrete, oob float64, err error) {
	if base.Len() == 0 {
		return stats.Discrete{}, 0, errors.New("scenario: empty base distribution")
	}
	if onDemand <= 0 {
		return stats.Discrete{}, 0, errors.New("scenario: on-demand price must be positive")
	}
	kept, tail := base.Truncate(bid)
	total := kept.TotalMass() + tail
	if total <= 0 {
		return stats.Discrete{}, 0, errors.New("scenario: base distribution has no mass")
	}
	// Renormalise (guards against bases whose mass drifted from 1).
	for i := range kept.Probs {
		kept.Probs[i] /= total
	}
	tail /= total
	if tail > 1e-12 {
		kept.Values = append(kept.Values, onDemand)
		kept.Probs = append(kept.Probs, tail)
		oob = tail
	}
	return kept, oob, nil
}

// BuildConfig controls tree construction.
type BuildConfig struct {
	// Stages is the number of future stages (the planning horizon beyond
	// the known root state); the tree has Stages+1 levels.
	Stages int
	// MaxBranch caps the number of child states per stage. Kept (below-bid)
	// states are aggregated by probability mass to MaxBranch−1 (or
	// MaxBranch when no out-of-bid state exists); the out-of-bid state is
	// never merged. ≤0 means no cap.
	MaxBranch int
	// RootPrice is the known current spot price (stage 0).
	RootPrice float64
}

// maxVertices is the largest tree Build makes: vertex indices must fit the
// int32 rows of the tree DP.
const maxVertices = math.MaxInt32

// treeSize returns the vertex count 1 + Σ_s Π_{k≤s} width(k) of a balanced
// tree whose stage-(s+1) vertices each have width(s) ≥ 1 children. The
// count must fit maxVertices; each product is checked before it is formed,
// so a request for an astronomically large tree fails here instead of
// exhausting memory.
func treeSize(stages int, width func(s int) int) (int, error) {
	n, level := 1, 1
	for s := 0; s < stages; s++ {
		w := width(s)
		if level > maxVertices/w || n > maxVertices-level*w {
			return 0, fmt.Errorf("scenario: %d-stage tree exceeds %d vertices at stage %d", stages, maxVertices, s+1)
		}
		level *= w
		n += level
	}
	return n, nil
}

// Build expands per-stage bid-adjusted distributions into a balanced
// multistage tree. bids[t] is the ASP's bid for future stage t+1
// (len(bids) == cfg.Stages); base is the summarised historical price
// distribution; onDemand is λ. A tree of more than math.MaxInt32 vertices is
// refused with an error before any of it is allocated.
func Build(base stats.Discrete, bids []float64, onDemand float64, cfg BuildConfig) (*Tree, error) {
	if cfg.Stages <= 0 {
		return nil, errors.New("scenario: Stages must be positive")
	}
	if len(bids) != cfg.Stages {
		return nil, fmt.Errorf("scenario: %d bids for %d stages", len(bids), cfg.Stages)
	}
	if cfg.RootPrice <= 0 {
		return nil, errors.New("scenario: RootPrice must be positive")
	}
	// Per-stage state distributions.
	type state struct {
		price float64
		prob  float64
		oob   bool
	}
	stages := make([][]state, cfg.Stages)
	for s := 0; s < cfg.Stages; s++ {
		adj, oobMass, err := BidAdjusted(base, bids[s], onDemand)
		if err != nil {
			return nil, fmt.Errorf("scenario: stage %d: %w", s+1, err)
		}
		var kept stats.Discrete
		var oobProb float64
		if oobMass > 0 {
			kept = stats.Discrete{
				Values: adj.Values[:adj.Len()-1],
				Probs:  adj.Probs[:adj.Len()-1],
			}
			oobProb = oobMass
		} else {
			kept = adj
		}
		if cfg.MaxBranch > 0 {
			keepMax := cfg.MaxBranch
			if oobProb > 0 {
				keepMax--
			}
			if keepMax < 1 {
				keepMax = 1
			}
			kept = kept.Aggregate(keepMax)
		}
		sts := make([]state, 0, kept.Len()+1)
		for i := range kept.Values {
			sts = append(sts, state{price: kept.Values[i], prob: kept.Probs[i]})
		}
		if oobProb > 0 {
			sts = append(sts, state{price: onDemand, prob: oobProb, oob: true})
		}
		if len(sts) == 0 {
			return nil, fmt.Errorf("scenario: stage %d has no states", s+1)
		}
		stages[s] = sts
	}
	n, err := treeSize(cfg.Stages, func(s int) int { return len(stages[s]) })
	if err != nil {
		return nil, err
	}
	// Expand into the tree, breadth-first: the parents of stage s+1 are
	// the vertices [lo, hi) of stage s.
	tr := &Tree{
		Parent:   make([]int, n),
		Prob:     make([]float64, n),
		Stage:    make([]int, n),
		Price:    make([]float64, n),
		OutOfBid: make([]bool, n),
	}
	tr.Parent[0], tr.Prob[0], tr.Price[0] = -1, 1, cfg.RootPrice
	lo, hi, w := 0, 1, 1
	for s, sts := range stages {
		for v := lo; v < hi; v++ {
			for _, st := range sts {
				tr.Parent[w] = v
				tr.Prob[w] = tr.Prob[v] * st.prob
				tr.Stage[w] = s + 1
				tr.Price[w] = st.price
				tr.OutOfBid[w] = st.oob
				w++
			}
		}
		lo, hi = hi, w
	}
	return tr, nil
}

// SampleScenario draws a random root-to-leaf path (price per stage),
// respecting the branch probabilities. Useful for Monte Carlo evaluation.
func (t *Tree) SampleScenario(rng *rand.Rand) []float64 {
	children := make([][]int, t.N())
	for v := 1; v < t.N(); v++ {
		children[t.Parent[v]] = append(children[t.Parent[v]], v)
	}
	out := []float64{t.Price[0]}
	v := 0
	for len(children[v]) > 0 {
		// Child conditional probabilities are Prob[c]/Prob[v].
		u := rng.Float64() * t.Prob[v]
		acc := 0.0
		next := children[v][len(children[v])-1]
		for _, c := range children[v] {
			acc += t.Prob[c]
			if u <= acc {
				next = c
				break
			}
		}
		v = next
		out = append(out, t.Price[v])
	}
	return out
}

// ExpectedPrice returns the probability-weighted mean price of stage s.
func (t *Tree) ExpectedPrice(s int) float64 {
	sum, mass := 0.0, 0.0
	for v := 0; v < t.N(); v++ {
		if t.Stage[v] == s {
			sum += t.Prob[v] * t.Price[v]
			mass += t.Prob[v]
		}
	}
	if mass == 0 { //lint:ignore rentlint/floatcmp division guard: only an exactly-zero mass makes the ratio undefined
		return 0
	}
	return sum / mass
}

// OutOfBidProb returns the per-stage probability that the ASP is out of bid
// (conditional on nothing, i.e. the stage-marginal probability).
func (t *Tree) OutOfBidProb(s int) float64 {
	mass := 0.0
	for v := 0; v < t.N(); v++ {
		if t.Stage[v] == s && t.OutOfBid[v] {
			mass += t.Prob[v]
		}
	}
	return mass
}
