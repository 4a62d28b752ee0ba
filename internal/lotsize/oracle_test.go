package lotsize

import (
	"errors"
	"math"
)

// solveTreeOracle is the reference implementation of SolveTree that the
// rank-indexed DP replaced: per-vertex child slices, merged float target
// lists and one map memo per vertex. It is kept only as the oracle of the
// differential tests in tree_diff_test.go.
func solveTreeOracle(p *TreeProblem) (*TreeSolution, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	n := p.N()
	children := make([][]int, n)
	for v := 1; v < n; v++ {
		children[p.Parent[v]] = append(children[p.Parent[v]], v)
	}
	cumD := make([]float64, n)
	for v := 0; v < n; v++ {
		if v == 0 {
			cumD[0] = p.Demand[0]
		} else {
			cumD[v] = cumD[p.Parent[v]] + p.Demand[v]
		}
	}
	// Subtree holding mass H_v = Σ_{w ∈ subtree(v)} p_w·Hold_w and the
	// modified unit cost ĉ_v, via reverse topological order.
	H := make([]float64, n)
	for v := n - 1; v >= 0; v-- {
		H[v] = p.Prob[v] * p.Hold[v]
		for _, c := range children[v] {
			H[v] += H[c]
		}
	}
	chat := make([]float64, n)
	for v := 0; v < n; v++ {
		chat[v] = p.Prob[v]*p.Unit[v] + H[v]
	}
	// Candidate production targets per vertex: sorted distinct cumD values
	// of the subtree. Built by merging children lists (reverse topo).
	targets := make([][]float64, n)
	for v := n - 1; v >= 0; v-- {
		merged := []float64{cumD[v]}
		for _, c := range children[v] {
			merged = mergeSortedUnique(merged, targets[c])
		}
		targets[v] = merged
	}

	// Memoised DP over (vertex, incoming cumulative supply Y).
	type decision struct {
		cost    float64
		produce bool
		target  float64
	}
	memo := make([]map[float64]decision, n)
	for v := range memo {
		memo[v] = make(map[float64]decision)
	}
	const tol = 1e-12
	var solve func(v int, y float64) float64
	solve = func(v int, y float64) float64 {
		if d, ok := memo[v][y]; ok {
			return d.cost
		}
		best := decision{cost: math.Inf(1)}
		// Option 1: no production at v (feasible if supply already covers
		// the cumulative demand through v).
		if y >= cumD[v]-tol {
			c := 0.0
			for _, ch := range children[v] {
				c += solve(ch, y)
			}
			if c < best.cost {
				best = decision{cost: c, produce: false, target: y}
			}
		}
		// Option 2: produce up to a binding future requirement t > y.
		for _, t := range targets[v] {
			if t <= y+tol || t < cumD[v]-tol {
				continue
			}
			c := p.Prob[v]*p.Setup[v] + chat[v]*(t-y)
			if c >= best.cost {
				continue // children costs are ≥ 0; prune
			}
			for _, ch := range children[v] {
				c += solve(ch, t)
				if c >= best.cost {
					break
				}
			}
			if c < best.cost {
				best = decision{cost: c, produce: true, target: t}
			}
		}
		memo[v][y] = best
		return best.cost
	}
	root := solve(0, p.InitialInventory)
	if math.IsInf(root, 1) {
		return nil, errors.New("lotsize: infeasible tree plan (internal error)")
	}
	constCost := 0.0
	for v := 0; v < n; v++ {
		constCost += p.Prob[v] * p.Hold[v] * (p.InitialInventory - cumD[v])
	}
	sol := &TreeSolution{
		Cost:      root + constCost,
		Produce:   make([]float64, n),
		Setup:     make([]bool, n),
		Inventory: make([]float64, n),
	}
	// Reconstruct the plan by replaying the memoised decisions.
	type walk struct {
		v int
		y float64
	}
	stack := []walk{{0, p.InitialInventory}}
	for len(stack) > 0 {
		w := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		d, ok := memo[w.v][w.y]
		if !ok {
			return nil, errors.New("lotsize: reconstruction state missing (internal error)")
		}
		y := w.y
		if d.produce {
			sol.Produce[w.v] = d.target - y
			sol.Setup[w.v] = true
			y = d.target
		}
		sol.Inventory[w.v] = y - cumD[w.v]
		if sol.Inventory[w.v] < 0 && sol.Inventory[w.v] > -1e-9 {
			sol.Inventory[w.v] = 0
		}
		for _, c := range children[w.v] {
			stack = append(stack, walk{c, y})
		}
	}
	return sol, nil
}

// mergeSortedUnique merges two ascending slices, dropping duplicates (within
// exact float equality, which holds because all values are shared cumD
// sums).
func mergeSortedUnique(a, b []float64) []float64 {
	out := make([]float64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var v float64
		switch {
		case i >= len(a):
			v = b[j]
			j++
		case j >= len(b):
			v = a[i]
			i++
		case a[i] < b[j]:
			v = a[i]
			i++
		case b[j] < a[i]:
			v = b[j]
			j++
		default:
			v = a[i]
			i++
			j++
		}
		if len(out) == 0 || out[len(out)-1] != v {
			out = append(out, v)
		}
	}
	return out
}
