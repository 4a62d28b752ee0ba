// Package mip provides a parallel branch-and-bound solver for mixed-integer
// linear programs, built on the bounded-variable simplex in internal/lp. It
// is the general-purpose optimisation engine behind the DRRP and SRRP
// planning models: best-bound search with depth-first plunging, most-
// fractional or pseudo-cost branching, and a rounding primal heuristic.
//
// # Parallel search
//
// Options.Workers sets the worker-pool size (≤0 selects all cores;
// Workers = 1 preserves the deterministic serial search). Each worker owns
// a private clone of the LP and its scratch buffers and pulls nodes from a
// shared best-bound heap; incumbents are published atomically so pruning
// stays globally correct, and pseudo-cost statistics are shared through
// per-variable atomic accumulators. The proven optimal objective is
// identical for every worker count.
//
// # Observability
//
// Every Solution carries a final Stats snapshot: node throughput, total
// simplex iterations, the incumbent trajectory with timestamps and bounds
// (i.e. the gap over time), and per-worker node counts. Set
// Options.Progress to stream periodic snapshots during the solve; the
// callback also fires on every incumbent improvement.
package mip

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rentplan/internal/lp"
	"rentplan/internal/num"
)

// Status reports the outcome of a MILP solve.
type Status int8

const (
	// StatusOptimal means an optimal integer solution was proven.
	StatusOptimal Status = iota
	// StatusInfeasible means no integer-feasible point exists.
	StatusInfeasible
	// StatusUnbounded means the relaxation (and hence the MILP) is unbounded.
	StatusUnbounded
	// StatusFeasible means the search stopped at a limit with an incumbent
	// but without a proof of optimality.
	StatusFeasible
	// StatusLimit means the search stopped at a limit with no incumbent.
	StatusLimit
	// StatusTimeLimit means the wall-clock budget expired — Options.TimeLimit
	// or the deadline of the context passed to SolveCtx, whichever fired.
	// X/Obj hold the best incumbent when one exists, and Bound remains a
	// valid lower bound (the lostBound machinery accounts every subtree the
	// deadline cut off).
	StatusTimeLimit
	// StatusCanceled means the context passed to SolveCtx was canceled
	// before the search finished. Incumbent and bound semantics are the same
	// as for StatusTimeLimit; a canceled solve never claims optimality
	// unless the tree was already exhausted when the cancellation landed.
	StatusCanceled
)

func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusFeasible:
		return "feasible"
	case StatusLimit:
		return "limit"
	case StatusTimeLimit:
		return "time-limit"
	case StatusCanceled:
		return "canceled"
	}
	return fmt.Sprintf("Status(%d)", int8(s))
}

// BranchRule selects how the fractional branching variable is chosen.
type BranchRule int8

const (
	// BranchMostFractional picks the integer variable whose relaxation value
	// is closest to .5.
	BranchMostFractional BranchRule = iota
	// BranchPseudoCost picks the variable with the best observed
	// degradation history, falling back to most-fractional early on.
	BranchPseudoCost
	// BranchFirstFractional picks the lowest-indexed fractional variable.
	BranchFirstFractional
)

// Problem is a mixed integer linear program: an LP plus integrality marks.
type Problem struct {
	LP *lp.Problem
	// Integer[j] == true requires variable j to take an integer value.
	Integer []bool
}

// Validate checks the MILP for dimensional consistency.
func (p *Problem) Validate() error {
	if p.LP == nil {
		return errors.New("mip: nil LP")
	}
	if err := p.LP.Validate(); err != nil {
		return err
	}
	if len(p.Integer) != p.LP.NumVars() {
		return fmt.Errorf("mip: |Integer|=%d, want %d", len(p.Integer), p.LP.NumVars())
	}
	return nil
}

// Options tunes the branch-and-bound search. Zero value = defaults.
type Options struct {
	// MaxNodes bounds explored nodes; ≤0 selects 200000.
	MaxNodes int
	// TimeLimit bounds wall time; 0 means none.
	TimeLimit time.Duration
	// RelGap is the relative optimality gap at which search stops;
	// ≤0 selects 1e-9.
	RelGap float64
	// IntTol is the integrality tolerance; ≤0 selects 1e-6.
	IntTol float64
	// Rule selects the branching rule.
	Rule BranchRule
	// DisableHeuristic turns off the rounding primal heuristic.
	DisableHeuristic bool
	// RootBasis, when non-nil, warm-starts the root relaxation from a prior
	// solve of the same (or a structurally identical) problem — typically
	// the Solution.RootBasis of another tenant's solve over a shared
	// scenario tree. A Basis is immutable, so one snapshot may be passed to
	// any number of concurrent solves. A stale or mismatched basis is
	// harmless: the simplex falls back to the bit-identical cold path.
	RootBasis *lp.Basis
	// Workers is the number of branch-and-bound workers; ≤0 selects
	// runtime.GOMAXPROCS(0). Workers = 1 preserves the deterministic
	// serial search order.
	Workers int
	// Progress, when non-nil, receives Stats snapshots: periodically
	// (every ProgressEvery) and on every incumbent improvement. The
	// callback is serialised — it is never invoked concurrently — but may
	// run on any worker goroutine, so it must not call back into the
	// solver.
	Progress func(Stats)
	// ProgressEvery is the minimum interval between periodic Progress
	// callbacks; ≤0 selects 200ms.
	ProgressEvery time.Duration
	// LP forwards options to the simplex.
	LP lp.Options
}

func (o Options) withDefaults() Options {
	if o.MaxNodes <= 0 {
		o.MaxNodes = 200000
	}
	if o.RelGap <= 0 {
		o.RelGap = num.RelGapTol
	}
	if o.IntTol <= 0 {
		o.IntTol = num.IntTol
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.ProgressEvery <= 0 {
		o.ProgressEvery = 200 * time.Millisecond
	}
	return o
}

// Solution is the result of a MILP solve.
type Solution struct {
	Status Status
	X      []float64
	Obj    float64
	// Bound is the best proven lower bound on the optimum: the minimum
	// relaxation bound over the unexplored frontier when a limit stops the
	// search early, or the incumbent objective once the tree is exhausted.
	Bound float64
	// Nodes is the number of branch-and-bound nodes solved.
	Nodes int
	// Gap is the final relative gap |Obj−Bound| / max(1,|Obj|).
	Gap float64
	// Stats is the final solver-progress snapshot (throughput, simplex
	// iterations, incumbent trajectory, per-worker node counts).
	Stats Stats
	// RootBasis is the optimal basis of the root relaxation, captured so a
	// later solve over the same problem structure can warm-start through
	// Options.RootBasis. Nil when the root relaxation did not reach
	// optimality. The snapshot is immutable and safe to share.
	RootBasis *lp.Basis
}

type node struct {
	lower, upper []float64 // variable bound overrides
	bound        float64   // parent LP objective (lower bound)
	depth        int

	// basis is the parent's optimal LP basis, used to warm-start this node's
	// relaxation. A Basis is immutable, so siblings (and workers) share the
	// same snapshot without copying; nil at the root forces a cold solve.
	basis *lp.Basis

	// branching provenance, used to update pseudo-costs when the node's own
	// relaxation is solved. branchVar < 0 at the root.
	branchVar  int
	branchUp   bool
	branchFrac float64 // fractional part of the parent value of branchVar
}

type nodeHeap []*node

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return h[i].bound < h[j].bound }
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// Solve minimises the MILP with default options.
func Solve(p *Problem) (*Solution, error) { return SolveWithOptions(p, Options{}) }

// SolveWithOptions minimises the MILP with the given options.
func SolveWithOptions(p *Problem, opts Options) (*Solution, error) {
	return SolveCtx(context.Background(), p, opts)
}

// SolveCtx minimises the MILP like SolveWithOptions, additionally observing
// ctx. Cancellation is cooperative and unified with Options.TimeLimit: a
// positive TimeLimit is installed as a deadline on the context handed to
// every node LP, so a single long relaxation can overshoot the budget by at
// most a few simplex pivots rather than by its whole runtime. An expired
// deadline (either source) yields StatusTimeLimit, an explicit cancellation
// StatusCanceled; both carry the best incumbent found and a valid bound. A
// background context with TimeLimit == 0 is bit-identical to
// SolveWithOptions.
func SolveCtx(ctx context.Context, p *Problem, opts Options) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return newBnB(ctx, p, opts.withDefaults()).run(), nil
}

// atomicFloat64 is a float64 with atomic load and add, used for the shared
// pseudo-cost accumulators.
type atomicFloat64 struct{ bits atomic.Uint64 }

func (a *atomicFloat64) Load() float64 { return math.Float64frombits(a.bits.Load()) }

func (a *atomicFloat64) Add(v float64) {
	for {
		old := a.bits.Load()
		if a.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// bnb is the shared search state. The open heap, incumbent, limit flags and
// per-worker accounting are guarded by mu; the incumbent objective is
// mirrored in incBits for lock-free pruning reads, and the pseudo-cost
// tables are per-variable atomic accumulators.
type bnb struct {
	p     *Problem
	opts  Options
	start time.Time

	// ctx is observed by every worker between node pops and inside every
	// node LP; cancel releases the deadline derived from Options.TimeLimit.
	ctx    context.Context
	cancel context.CancelFunc

	baseLower, baseUpper []float64 // original variable bounds (nil-expanded)
	rowAbs               []float64 // Σ_j |A_ij| per row: snap-tolerance scale

	lpOpts lp.Options // node LP options, resolved once at solve start

	iters   atomic.Int64  // simplex pivots across all node LPs
	incBits atomic.Uint64 // float bits of the incumbent objective (+Inf = none)

	// warm-start accounting: how each node LP was dispatched and how many
	// pivots each dispatch class consumed.
	warmHits      atomic.Int64
	warmMisses    atomic.Int64
	warmDuals     atomic.Int64
	warmFallbacks atomic.Int64
	warmIters     atomic.Int64
	coldNodes     atomic.Int64
	coldIters     atomic.Int64

	// dual-simplex / eta-file accounting aggregated from the node LPs.
	dualIters        atomic.Int64
	etaCount         atomic.Int64
	refactorizations atomic.Int64

	// sparse-pricing accounting aggregated from the node LP solutions.
	pricingSweeps atomic.Int64
	candHits      atomic.Int64
	nnz           int // structural nonzeros, constant per solve

	psUp, psDown   []atomicFloat64
	psUpN, psDownN []atomic.Int64

	mu          sync.Mutex
	cond        *sync.Cond
	open        nodeHeap
	idle        int  // workers blocked on an empty frontier
	stopped     bool // terminal: limit, unboundedness or exhaustion
	limitHit    bool
	timeHit     bool // wall-clock budget expired (TimeLimit or ctx deadline)
	canceled    bool // caller context canceled
	unbounded   bool
	lostBound   float64 // min bound over subtrees dropped at an LP iteration limit; +Inf if none
	nodes       int
	workerNodes []int
	inflight    []float64 // per-worker bound of the subtree being plunged; +Inf idle
	incumbent   []float64
	incObj      float64
	hasInc      bool
	history     []IncumbentRecord

	progressMu   sync.Mutex
	lastProgress time.Time

	// rootBasis is the root relaxation's optimal basis. Written once by the
	// single worker that pops the root node, read in finish() after the
	// worker pool has drained — the WaitGroup orders the accesses.
	rootBasis *lp.Basis
}

func newBnB(ctx context.Context, p *Problem, opts Options) *bnb {
	n := p.LP.NumVars()
	b := &bnb{p: p, opts: opts, start: now(), incObj: math.Inf(1), lostBound: math.Inf(1)}
	b.ctx = ctx
	if opts.TimeLimit > 0 {
		// Unify TimeLimit with the context: node LPs inherit the remaining
		// wall-clock budget as a deadline, so the time-limit check no longer
		// fires only between node pops (a single long LP used to blow far
		// past TimeLimit).
		b.ctx, b.cancel = context.WithDeadline(ctx, b.start.Add(opts.TimeLimit))
	}
	// Resolve the LP options exactly once so a caller-supplied Tol or
	// MaxIter reaches every node identically on both the warm and the cold
	// dispatch paths, instead of being re-defaulted per node.
	b.lpOpts = opts.LP.Resolved(p.LP.NumRows(), n)
	b.cond = sync.NewCond(&b.mu)
	b.incBits.Store(math.Float64bits(math.Inf(1)))
	b.psUp = make([]atomicFloat64, n)
	b.psDown = make([]atomicFloat64, n)
	b.psUpN = make([]atomic.Int64, n)
	b.psDownN = make([]atomic.Int64, n)
	b.baseLower = make([]float64, n)
	b.baseUpper = make([]float64, n)
	for j := range b.baseUpper {
		b.baseUpper[j] = math.Inf(1)
	}
	if p.LP.Lower != nil {
		copy(b.baseLower, p.LP.Lower)
	}
	if p.LP.Upper != nil {
		copy(b.baseUpper, p.LP.Upper)
	}
	b.rowAbs = make([]float64, p.LP.NumRows())
	for i := range b.rowAbs {
		b.rowAbs[i] = p.LP.RowAbsSum(i)
	}
	b.nnz = p.LP.NNZ()
	b.workerNodes = make([]int, opts.Workers)
	b.inflight = make([]float64, opts.Workers)
	for i := range b.inflight {
		b.inflight[i] = math.Inf(1)
	}
	return b
}

func (b *bnb) run() *Solution {
	if b.cancel != nil {
		defer b.cancel()
	}
	root := &node{
		lower:     append([]float64(nil), b.baseLower...),
		upper:     append([]float64(nil), b.baseUpper...),
		bound:     math.Inf(-1),
		branchVar: -1,
		basis:     b.opts.RootBasis, // nil → cold root, as before
	}
	heap.Init(&b.open)
	heap.Push(&b.open, root)

	if w := len(b.workerNodes); w == 1 {
		b.worker(0) // serial path: no goroutines, deterministic order
	} else {
		var wg sync.WaitGroup
		wg.Add(w)
		for id := 0; id < w; id++ {
			go func(id int) {
				defer wg.Done()
				b.worker(id)
			}(id)
		}
		wg.Wait()
	}
	return b.finish()
}

// worker pulls nodes from the shared frontier until the search terminates.
// Each worker owns its LP clone, so node bound overrides never race.
func (b *bnb) worker(id int) {
	work := b.p.LP.Clone()
	if work.Lower == nil {
		work.Lower = append([]float64(nil), b.baseLower...)
	}
	if work.Upper == nil {
		work.Upper = append([]float64(nil), b.baseUpper...)
	}
	for {
		nd := b.next(id)
		if nd == nil {
			return
		}
		b.processNode(id, work, nd)
		b.mu.Lock()
		b.inflight[id] = math.Inf(1)
		b.mu.Unlock()
	}
}

// next pops the best-bound open node, blocking while the frontier is empty
// but other workers are still expanding it. It returns nil on termination:
// limits, unboundedness, or a fully explored tree.
func (b *bnb) next(id int) *node {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if b.stopped {
			return nil
		}
		if b.checkStopLocked() {
			return nil
		}
		// Best-bound order: if the cheapest open node cannot beat the
		// incumbent, neither can any other — the whole frontier is proven
		// dominated and can be dropped.
		if len(b.open) > 0 && b.hasInc && !improves(b.open[0].bound, b.incObj, b.opts.RelGap) {
			b.open = b.open[:0]
		}
		if len(b.open) > 0 {
			nd := heap.Pop(&b.open).(*node)
			b.inflight[id] = nd.bound
			return nd
		}
		if b.idle == len(b.inflight)-1 {
			// Every other worker is already waiting on the empty frontier:
			// the tree is exhausted.
			b.stopLocked()
			return nil
		}
		b.idle++
		b.cond.Wait()
		b.idle--
	}
}

func (b *bnb) stopLocked() {
	b.stopped = true
	b.cond.Broadcast()
}

func (b *bnb) overTime() bool {
	return b.opts.TimeLimit > 0 && since(b.start) > b.opts.TimeLimit
}

// checkStopLocked classifies and flags the applicable stop cause — node
// limit, wall-clock budget (Options.TimeLimit or the caller context's
// deadline), or explicit cancellation — and terminates the search when one
// fired. Callers must hold mu.
func (b *bnb) checkStopLocked() bool {
	switch err := b.ctx.Err(); {
	case b.nodes >= b.opts.MaxNodes:
		b.limitHit = true
	case b.overTime() || err == context.DeadlineExceeded:
		b.timeHit = true
	case err != nil:
		b.canceled = true
	default:
		return false
	}
	b.stopLocked()
	return true
}

// reserve accounts one node about to be solved, enforcing the node and time
// limits exactly (the counter never exceeds MaxNodes, for any worker count),
// and refreshes the worker's in-flight bound so the global bound tightens as
// a plunge dives (each dived node's bound is valid for its whole subtree).
func (b *bnb) reserve(id int, nd *node) bool {
	if b.opts.Progress != nil {
		b.emitProgress(false)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.stopped {
		return false
	}
	if b.checkStopLocked() {
		return false
	}
	b.nodes++
	b.workerNodes[id]++
	b.inflight[id] = nd.bound
	return true
}

func (b *bnb) pushNode(nd *node) {
	b.mu.Lock()
	heap.Push(&b.open, nd)
	b.cond.Signal()
	b.mu.Unlock()
}

// recordLost accounts a subtree dropped because its relaxation hit the LP
// iteration limit: the search can no longer prove anything below the
// subtree's entry bound, so that bound caps the final proven bound and the
// stop is flagged as a limit rather than an exhaustive proof.
func (b *bnb) recordLost(bound float64) {
	b.mu.Lock()
	b.limitHit = true
	if bound < b.lostBound {
		b.lostBound = bound
	}
	b.mu.Unlock()
}

// recordLostCtx accounts a subtree whose relaxation was cut off by the
// context — deadline or cancellation — keeping the final bound honest, and
// stops the search (every other worker would observe the same context).
func (b *bnb) recordLostCtx(bound float64) {
	b.mu.Lock()
	if b.overTime() || b.ctx.Err() == context.DeadlineExceeded {
		b.timeHit = true
	} else {
		b.canceled = true
	}
	if bound < b.lostBound {
		b.lostBound = bound
	}
	b.stopLocked()
	b.mu.Unlock()
}

func (b *bnb) markUnbounded() {
	b.mu.Lock()
	b.unbounded = true
	b.stopLocked()
	b.mu.Unlock()
}

// currentIncumbent returns the incumbent objective without taking the lock;
// a stale read only weakens pruning, never correctness.
func (b *bnb) currentIncumbent() (float64, bool) {
	v := math.Float64frombits(b.incBits.Load())
	return v, !math.IsInf(v, 1)
}

func (b *bnb) finish() *Solution {
	// Workers have exited; every interrupted plunge pushed its subtree back,
	// so the heap holds exactly the unexplored frontier — plus any subtree
	// recorded as lost when its relaxation hit the LP iteration limit.
	mn := b.lostBound
	for _, nd := range b.open {
		if nd.bound < mn {
			mn = nd.bound
		}
	}
	frontier := len(b.open) > 0 || !math.IsInf(b.lostBound, 1)
	if !frontier && !b.unbounded {
		// An empty frontier means the tree was fully explored; a limit,
		// deadline or cancellation that fired in the same instant proved
		// nothing weaker.
		b.limitHit, b.timeHit, b.canceled = false, false, false
	}
	var bound float64
	switch {
	case b.unbounded:
		bound = math.Inf(-1)
	case frontier:
		bound = mn // true minimum over the open frontier and lost subtrees
		if b.hasInc && bound > b.incObj {
			bound = b.incObj // frontier dominated: the incumbent is the proof
		}
	default:
		bound = b.incObj // +Inf when no incumbent: min over an empty frontier
	}
	sol := &Solution{Nodes: b.nodes, Bound: bound}
	stopped := b.limitHit || b.timeHit || b.canceled
	switch {
	case b.unbounded:
		sol.Status = StatusUnbounded
	case b.hasInc && (!stopped || !improves(bound, b.incObj, b.opts.RelGap)):
		sol.Status = StatusOptimal
		sol.X = b.incumbent
		sol.Obj = b.incObj
	case b.timeHit:
		sol.Status = StatusTimeLimit
		if b.hasInc {
			sol.X = b.incumbent
			sol.Obj = b.incObj
		}
	case b.canceled:
		sol.Status = StatusCanceled
		if b.hasInc {
			sol.X = b.incumbent
			sol.Obj = b.incObj
		}
	case b.hasInc:
		sol.Status = StatusFeasible
		sol.X = b.incumbent
		sol.Obj = b.incObj
	case b.limitHit:
		sol.Status = StatusLimit
	default:
		sol.Status = StatusInfeasible
	}
	if b.hasInc {
		sol.Gap = relGap(sol.Obj, sol.Bound)
	}
	b.mu.Lock()
	st := b.snapshotLocked()
	b.mu.Unlock()
	st.Bound = sol.Bound
	st.Gap = sol.Gap
	sol.Stats = st
	sol.RootBasis = b.rootBasis
	return sol
}

// improves reports whether bound is meaningfully below obj.
func improves(bound, obj, relGap float64) bool {
	return bound < obj-relGap*math.Max(1, math.Abs(obj))-num.DriftTol
}

// branchPoint returns the down-branch ceiling fl (children are x ≤ fl and
// x ≥ fl+1) and the fractional part of xj measured consistently against
// that same fl, clamped to [0,1]. A value within tol just below an integer
// therefore yields fpart ≈ 0, never a near-1 artefact that would pollute
// the pseudo-cost averages.
func branchPoint(xj, tol float64) (fl, fpart float64) {
	fl = math.Floor(xj + tol)
	fpart = xj - fl
	if fpart < 0 {
		fpart = 0
	}
	if fpart > 1 {
		fpart = 1
	}
	return fl, fpart
}

// processNode depth-first plunges from nd: repeatedly solve the relaxation
// and dive onto one child, pushing the sibling onto the shared frontier.
func (b *bnb) processNode(id int, work *lp.Problem, nd *node) {
	for {
		if !b.reserve(id, nd) {
			// A limit or stop fired mid-plunge: return the unexplored
			// subtree to the frontier so the final bound stays exact.
			b.pushNode(nd)
			return
		}
		copy(work.Lower, nd.lower)
		copy(work.Upper, nd.upper)
		var sol *lp.Solution
		var err error
		if nd.basis != nil {
			sol, err = lp.SolveFromCtx(b.ctx, work, nd.basis, b.lpOpts)
		} else {
			sol, err = lp.SolveCtx(b.ctx, work, b.lpOpts)
		}
		if err != nil {
			return
		}
		b.iters.Add(int64(sol.Iterations))
		b.pricingSweeps.Add(int64(sol.PricingSweeps))
		b.candHits.Add(int64(sol.CandidateHits))
		b.dualIters.Add(int64(sol.DualIters))
		b.etaCount.Add(int64(sol.EtaCount))
		b.refactorizations.Add(int64(sol.Refactorizations))
		switch sol.WarmStart {
		case lp.WarmHit:
			b.warmHits.Add(1)
			b.warmIters.Add(int64(sol.Iterations))
		case lp.WarmMiss:
			b.warmMisses.Add(1)
			b.warmIters.Add(int64(sol.Iterations))
		case lp.WarmDual:
			b.warmDuals.Add(1)
			b.warmIters.Add(int64(sol.Iterations))
		case lp.WarmFallback:
			b.warmFallbacks.Add(1)
			b.warmIters.Add(int64(sol.Iterations))
		default:
			b.coldNodes.Add(1)
			b.coldIters.Add(int64(sol.Iterations))
		}
		switch sol.Status {
		case lp.StatusInfeasible:
			return
		case lp.StatusUnbounded:
			if nd.branchVar < 0 {
				// Unbounded root relaxation: the MILP itself is unbounded.
				b.markUnbounded()
			}
			// Deeper nodes: prune conservatively — the ray need not respect
			// this subtree's integrality restrictions.
			return
		case lp.StatusIterLimit:
			// The subtree's true bound is unknown: its LP never finished, so
			// dropping it silently would let finish() claim a proven optimum
			// it does not have. Record the parent bound as "lost" so the
			// final bound and status account for the unexplored subtree.
			b.recordLost(nd.bound)
			return
		case lp.StatusCanceled:
			// The node LP observed the context dying mid-solve. The subtree
			// bound is lost exactly as at an LP iteration limit, but the
			// stop is classified as a deadline/cancellation, not a search
			// limit, and the whole search winds down.
			b.recordLostCtx(nd.bound)
			return
		}
		if nd.branchVar < 0 {
			// Root relaxation solved to optimality: publish its basis so the
			// caller can warm-start sibling solves over the same structure.
			b.rootBasis = sol.Basis
		}
		if nd.branchVar >= 0 && !math.IsInf(nd.bound, -1) {
			// Pseudo-cost update: per-unit objective degradation of the
			// branch that created this node.
			degr := math.Max(0, sol.Obj-nd.bound)
			j := nd.branchVar
			if nd.branchUp {
				b.psUp[j].Add(degr / math.Max(1-nd.branchFrac, b.opts.IntTol))
				b.psUpN[j].Add(1)
			} else {
				b.psDown[j].Add(degr / math.Max(nd.branchFrac, b.opts.IntTol))
				b.psDownN[j].Add(1)
			}
		}
		if inc, ok := b.currentIncumbent(); ok && !improves(sol.Obj, inc, b.opts.RelGap) {
			return // dominated
		}
		frac := b.pickBranch(sol.X)
		if frac < 0 {
			// Integer feasible (within tolerance).
			b.offerIncumbent(sol.X)
			return
		}
		if !b.opts.DisableHeuristic {
			b.tryRounding(sol.X)
		}
		fl, fpart := branchPoint(sol.X[frac], b.opts.IntTol)
		down := &node{
			lower: append([]float64(nil), nd.lower...),
			upper: append([]float64(nil), nd.upper...),
			bound: sol.Obj, depth: nd.depth + 1, basis: sol.Basis,
			branchVar: frac, branchUp: false, branchFrac: fpart,
		}
		down.upper[frac] = fl
		up := &node{
			lower: append([]float64(nil), nd.lower...),
			upper: append([]float64(nil), nd.upper...),
			bound: sol.Obj, depth: nd.depth + 1, basis: sol.Basis,
			branchVar: frac, branchUp: true, branchFrac: fpart,
		}
		up.lower[frac] = fl + 1

		// Dive toward the nearer integer, push the sibling.
		if fpart <= 0.5 {
			b.pushNode(up)
			nd = down
		} else {
			b.pushNode(down)
			nd = up
		}
	}
}

// pickBranch returns the index of the integer variable to branch on, or -1
// if x is integer feasible.
func (b *bnb) pickBranch(x []float64) int {
	tol := b.opts.IntTol
	best, bestScore := -1, -1.0
	for j, isInt := range b.p.Integer {
		if !isInt {
			continue
		}
		f := x[j] - math.Floor(x[j])
		dist := math.Min(f, 1-f)
		if dist <= tol {
			continue
		}
		switch b.opts.Rule {
		case BranchFirstFractional:
			return j
		case BranchPseudoCost:
			un, dn := b.psUpN[j].Load(), b.psDownN[j].Load()
			up := avg(b.psUp[j].Load(), un)
			down := avg(b.psDown[j].Load(), dn)
			score := math.Max(up*(1-f), num.PseudoCostFloor) * math.Max(down*f, num.PseudoCostFloor)
			if un+dn == 0 {
				score = dist // uninitialised: fall back to fractionality
			}
			if score > bestScore {
				best, bestScore = j, score
			}
		default: // most fractional
			if dist > bestScore {
				best, bestScore = j, dist
			}
		}
	}
	return best
}

func avg(sum float64, n int64) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// offerIncumbent snaps the integer variables of an integral-within-tolerance
// relaxation point, recomputes the objective of the snapped point, and
// publishes it if it beats the incumbent. If snapping pushed the point out
// of feasibility it is rejected rather than recorded with a stale objective,
// so Solution.Obj always equals cᵀ·Solution.X.
func (b *bnb) offerIncumbent(x []float64) {
	cand := append([]float64(nil), x...)
	for j, isInt := range b.p.Integer {
		if isInt {
			cand[j] = math.Round(cand[j])
		}
	}
	// Snapping moves each integer coordinate by at most IntTol, so allow
	// row slack proportional to Σ_j |A_ij|.
	if !b.feasible(cand, true) {
		return
	}
	obj := 0.0
	for j, c := range b.p.LP.C {
		obj += c * cand[j]
	}
	b.publish(cand, obj)
}

// tryRounding rounds the fractional relaxation point and accepts it if it is
// feasible for the original problem.
func (b *bnb) tryRounding(x []float64) {
	cand := append([]float64(nil), x...)
	for j, isInt := range b.p.Integer {
		if isInt {
			cand[j] = math.Round(cand[j])
			lo, hi := b.baseLower[j], b.baseUpper[j]
			if cand[j] < lo {
				cand[j] = math.Ceil(lo)
			}
			if cand[j] > hi {
				cand[j] = math.Floor(hi)
			}
		}
	}
	if !b.feasible(cand, false) {
		return
	}
	obj := 0.0
	for j, c := range b.p.LP.C {
		obj += c * cand[j]
	}
	b.publish(cand, obj)
}

// publish installs x as the incumbent if it improves on the current one,
// records the trajectory point, and mirrors the objective for lock-free
// pruning.
func (b *bnb) publish(x []float64, obj float64) {
	b.mu.Lock()
	if obj >= b.incObj-num.DriftTol {
		b.mu.Unlock()
		return
	}
	b.incumbent = x
	b.incObj = obj
	b.hasInc = true
	b.incBits.Store(math.Float64bits(obj))
	rec := IncumbentRecord{
		Elapsed: since(b.start),
		Obj:     obj,
		Bound:   b.boundLocked(),
		Node:    b.nodes,
	}
	rec.Gap = relGap(obj, rec.Bound)
	b.history = append(b.history, rec)
	b.mu.Unlock()
	if b.opts.Progress != nil {
		b.emitProgress(true)
	}
}

// feasible checks x against the original bounds and rows. With scaled set,
// tolerances widen proportionally to IntTol (appropriate for points whose
// integer coordinates were snapped by at most IntTol); otherwise the strict
// fixed tolerance applies, as for heuristic rounding candidates.
func (b *bnb) feasible(x []float64, scaled bool) bool {
	btol := num.FeasTol
	if scaled {
		btol = b.opts.IntTol + num.SnapTol
	}
	for j := range x {
		if x[j] < b.baseLower[j]-btol || x[j] > b.baseUpper[j]+btol {
			return false
		}
	}
	for i := 0; i < b.p.LP.NumRows(); i++ {
		v := b.p.LP.RowDot(i, x)
		rtol := num.FeasTol
		if scaled {
			rtol += b.opts.IntTol * b.rowAbs[i]
		}
		switch b.p.LP.Rel[i] {
		case lp.LE:
			if v > b.p.LP.B[i]+rtol {
				return false
			}
		case lp.GE:
			if v < b.p.LP.B[i]-rtol {
				return false
			}
		case lp.EQ:
			if math.Abs(v-b.p.LP.B[i]) > rtol {
				return false
			}
		}
	}
	return true
}

// boundLocked returns the best proven lower bound at this instant: the
// minimum over the open frontier, every in-flight subtree, and any subtree
// lost to an LP iteration limit.
func (b *bnb) boundLocked() float64 {
	mn := b.lostBound
	if len(b.open) > 0 && b.open[0].bound < mn {
		mn = b.open[0].bound
	}
	for _, f := range b.inflight {
		if f < mn {
			mn = f
		}
	}
	if math.IsInf(mn, 1) && b.hasInc {
		mn = b.incObj
	}
	return mn
}

func (b *bnb) snapshotLocked() Stats {
	el := since(b.start)
	st := Stats{
		Elapsed:          el,
		Nodes:            b.nodes,
		SimplexIters:     b.iters.Load(),
		OpenNodes:        len(b.open),
		Workers:          len(b.workerNodes),
		WorkerNodes:      append([]int(nil), b.workerNodes...),
		HasIncumbent:     b.hasInc,
		Incumbent:        b.incObj,
		Incumbents:       append([]IncumbentRecord(nil), b.history...),
		WarmHits:         b.warmHits.Load(),
		WarmMisses:       b.warmMisses.Load(),
		WarmDuals:        b.warmDuals.Load(),
		WarmFallbacks:    b.warmFallbacks.Load(),
		WarmIters:        b.warmIters.Load(),
		ColdNodes:        b.coldNodes.Load(),
		ColdIters:        b.coldIters.Load(),
		PricingSweeps:    b.pricingSweeps.Load(),
		CandidateHits:    b.candHits.Load(),
		NNZ:              b.nnz,
		DualIters:        b.dualIters.Load(),
		EtaCount:         b.etaCount.Load(),
		Refactorizations: b.refactorizations.Load(),
	}
	if s := el.Seconds(); s > 0 {
		st.NodesPerSec = float64(b.nodes) / s
	}
	st.Bound = b.boundLocked()
	st.Gap = relGap(st.Incumbent, st.Bound)
	return st
}

// emitProgress delivers a Stats snapshot to the Progress callback, rate-
// limited to ProgressEvery unless forced (incumbent improvements). Calls
// are serialised on progressMu.
func (b *bnb) emitProgress(force bool) {
	b.progressMu.Lock()
	defer b.progressMu.Unlock()
	t := now()
	if !force && t.Sub(b.lastProgress) < b.opts.ProgressEvery {
		return
	}
	b.lastProgress = t
	b.mu.Lock()
	st := b.snapshotLocked()
	b.mu.Unlock()
	b.opts.Progress(st)
}
