package scenario

import (
	"errors"
	"fmt"

	"rentplan/internal/stats"
)

// BuildJoint builds a scenario tree over *jointly* uncertain prices and
// demands: each future stage branches over the product of the bid-adjusted
// price states (Eq. 10) and the given discrete demand states, assumed
// independent. It returns the tree plus the per-vertex demand realisations,
// ready for core.SolveSRRPVertexDemands. rootDemand is the known demand of
// the current slot.
//
// This implements the paper's future-work direction of planning under
// time-varying (uncertain) workloads; with a single demand state it reduces
// exactly to Build. Like Build, it refuses a tree of more than
// math.MaxInt32 vertices with an error before allocating any of its rows.
func BuildJoint(base stats.Discrete, bids []float64, onDemand float64, demStates stats.Discrete, rootDemand float64, cfg BuildConfig) (*Tree, []float64, error) {
	if demStates.Len() == 0 {
		return nil, nil, errors.New("scenario: empty demand distribution")
	}
	for i, d := range demStates.Values {
		if d < 0 {
			return nil, nil, fmt.Errorf("scenario: negative demand state %d", i)
		}
	}
	if rootDemand < 0 {
		return nil, nil, errors.New("scenario: negative root demand")
	}
	// Build the price-only tree first to reuse the per-stage sampling and
	// validation logic, then expand each price branch by the demand states.
	priceTree, err := Build(base, bids, onDemand, cfg)
	if err != nil {
		return nil, nil, err
	}
	// Collect the per-stage price states from the price tree's first
	// branch group (stages are homogeneous by construction).
	type pstate struct {
		price float64
		prob  float64
		oob   bool
	}
	stages := make([][]pstate, cfg.Stages)
	for v := 1; v < priceTree.N(); v++ {
		if priceTree.Parent[v] != 0 {
			break
		}
		s := 0
		stages[s] = append(stages[s], pstate{priceTree.Price[v], priceTree.Prob[v], priceTree.OutOfBid[v]})
	}
	for s := 1; s < cfg.Stages; s++ {
		// Find the first vertex of stage s+1 and read its sibling group.
		var parent = -1
		for v := 0; v < priceTree.N(); v++ {
			if priceTree.Stage[v] == s+1 {
				parent = priceTree.Parent[v]
				break
			}
		}
		if parent < 0 {
			return nil, nil, fmt.Errorf("scenario: stage %d missing in price tree", s+1)
		}
		pProb := priceTree.Prob[parent]
		for v := 0; v < priceTree.N(); v++ {
			if priceTree.Stage[v] == s+1 && priceTree.Parent[v] == parent {
				stages[s] = append(stages[s], pstate{priceTree.Price[v], priceTree.Prob[v] / pProb, priceTree.OutOfBid[v]})
			}
		}
	}

	// Each stage branches over price × demand states; a product too large
	// to form is clamped to maxVertices, which treeSize always refuses.
	nd := demStates.Len()
	n, err := treeSize(cfg.Stages, func(s int) int {
		if nd > maxVertices/len(stages[s]) {
			return maxVertices
		}
		return len(stages[s]) * nd
	})
	if err != nil {
		return nil, nil, err
	}
	// Expand breadth-first, as Build does: the parents of stage s+1 are the
	// vertices [lo, hi) of stage s.
	tr := &Tree{
		Parent:   make([]int, n),
		Prob:     make([]float64, n),
		Stage:    make([]int, n),
		Price:    make([]float64, n),
		OutOfBid: make([]bool, n),
	}
	dem := make([]float64, n)
	tr.Parent[0], tr.Prob[0], tr.Price[0], dem[0] = -1, 1, cfg.RootPrice, rootDemand
	lo, hi, w := 0, 1, 1
	for s := 0; s < cfg.Stages; s++ {
		for v := lo; v < hi; v++ {
			for _, ps := range stages[s] {
				for di, d := range demStates.Values {
					tr.Parent[w] = v
					tr.Prob[w] = tr.Prob[v] * ps.prob * demStates.Probs[di]
					tr.Stage[w] = s + 1
					tr.Price[w] = ps.price
					tr.OutOfBid[w] = ps.oob
					dem[w] = d
					w++
				}
			}
		}
		lo, hi = hi, w
	}
	if err := tr.Validate(); err != nil {
		return nil, nil, fmt.Errorf("scenario: joint tree invalid: %w", err)
	}
	return tr, dem, nil
}
