package mip

import (
	"math"
	"time"
)

// IncumbentRecord is one point of the incumbent trajectory: a new best
// integer-feasible solution discovered during the search.
type IncumbentRecord struct {
	// Elapsed is the wall time since the solve started.
	Elapsed time.Duration
	// Obj is the incumbent objective value.
	Obj float64
	// Bound is the best proven lower bound at the moment of discovery.
	Bound float64
	// Gap is the relative gap |Obj−Bound| / max(1,|Obj|) at discovery.
	Gap float64
	// Node is the number of nodes solved when the incumbent was found.
	Node int
}

// Stats is a snapshot of branch-and-bound progress. It is delivered to
// Options.Progress during the search and attached, as a final snapshot, to
// every Solution.
type Stats struct {
	// Elapsed is the wall time since the solve started.
	Elapsed time.Duration
	// Nodes is the number of nodes whose relaxation has been solved;
	// NodesPerSec is the throughput over the whole solve so far.
	Nodes       int
	NodesPerSec float64
	// SimplexIters is the total simplex pivots across every node LP.
	SimplexIters int64
	// OpenNodes is the size of the unexplored frontier.
	OpenNodes int
	// Workers is the worker-pool size; WorkerNodes holds the per-worker
	// node counts (index = worker id).
	Workers     int
	WorkerNodes []int
	// HasIncumbent reports whether an integer-feasible point is known;
	// Incumbent is its objective (+Inf when none).
	HasIncumbent bool
	Incumbent    float64
	// Bound is the best proven lower bound on the optimum and Gap the
	// relative gap |Incumbent−Bound| / max(1,|Incumbent|).
	Bound float64
	Gap   float64
	// Incumbents is the incumbent trajectory so far; together with the
	// Bound recorded per entry it traces the gap over time.
	Incumbents []IncumbentRecord

	// Warm-start accounting over node relaxations. Every solved node falls
	// into exactly one class — WarmHits + WarmMisses + WarmDuals +
	// WarmFallbacks + ColdNodes == Nodes — so the per-node simplex-iteration
	// averages WarmIters/(WarmHits+WarmMisses+WarmDuals+WarmFallbacks) and
	// ColdIters/ColdNodes expose the warm-start saving directly.
	//
	// WarmHits counts nodes whose inherited basis was feasible as-is (phase 1
	// skipped outright), WarmMisses nodes that needed the restricted primal
	// bound repair first, WarmDuals nodes whose dual-feasible basis was
	// repaired by the dual simplex, and WarmFallbacks nodes where the warm
	// attempt was abandoned for the cold path. ColdNodes counts nodes
	// dispatched cold from the start: the root, unless Options.RootBasis
	// warm-starts it. WarmIters and ColdIters split SimplexIters along the
	// same line.
	WarmHits      int64
	WarmMisses    int64
	WarmDuals     int64
	WarmFallbacks int64
	WarmIters     int64
	ColdNodes     int64
	ColdIters     int64

	// Sparse-pricing accounting over node relaxations. PricingSweeps is the
	// total number of full pricing sweeps (every column priced) across all
	// node LPs, and CandidateHits the pivots whose entering column came from
	// the candidate list without a sweep; a sweep count well below
	// SimplexIters is the partial-pricing saving. NNZ is the structural
	// nonzero count of the constraint matrix, constant across the solve.
	PricingSweeps int64
	CandidateHits int64
	NNZ           int

	// Dual-simplex and eta-file accounting aggregated from the node LPs.
	// DualIters is the subset of SimplexIters performed by the dual simplex
	// on WarmDuals nodes, EtaCount the product-form eta updates recorded
	// between refactorisations, and Refactorizations the total basis
	// refactorisations (periodic primal refreshes, post-eviction refreshes,
	// and dual eta-stack collapses).
	DualIters        int64
	EtaCount         int64
	Refactorizations int64
}

// relGap returns |obj−bound| / max(1,|obj|), or +Inf when either side is
// still unknown (infinite).
func relGap(obj, bound float64) float64 {
	if math.IsInf(obj, 0) || math.IsInf(bound, 0) {
		return math.Inf(1)
	}
	return math.Abs(obj-bound) / math.Max(1, math.Abs(obj))
}
