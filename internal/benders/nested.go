package benders

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"

	"rentplan/internal/lotsize"
	"rentplan/internal/lp"
	"rentplan/internal/num"
)

// defaultWarehouseCap is the per-vertex cut-store bound selected when
// NestedOptions.WarehouseCap is unset. It comfortably exceeds the sweep
// count of every converging instance seen in tests, so eviction only kicks
// in on pathologically slow runs where bounding the vertex LP size matters.
const defaultWarehouseCap = 128

// NestedOptions tunes the multistage nested L-shaped solver.
type NestedOptions struct {
	// MaxIter bounds forward/backward sweeps; ≤0 selects 200.
	MaxIter int
	// Tol is the relative gap closing the root bound; ≤0 selects
	// num.DecompGapTol.
	Tol float64
	// Workers bounds the goroutines solving vertex LPs within one stage of
	// a forward or backward pass; ≤0 selects runtime.GOMAXPROCS(0), and 1
	// runs the passes inline with no goroutines. The result is
	// bit-identical for every worker count: stages are separated by
	// barriers and all cross-vertex state is combined in vertex order.
	Workers int
	// WarehouseCap bounds the cuts stored per vertex before LRU aging
	// evicts the least-recently-used one; ≤0 selects defaultWarehouseCap.
	WarehouseCap int
}

func (o NestedOptions) withDefaults() NestedOptions {
	if o.MaxIter <= 0 {
		o.MaxIter = 200
	}
	if o.Tol <= 0 {
		o.Tol = num.DecompGapTol
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.WarehouseCap <= 0 {
		o.WarehouseCap = defaultWarehouseCap
	}
	return o
}

// NestedResult is the outcome of a nested L-shaped solve.
type NestedResult struct {
	// Bound is the proven lower bound (root master objective); Cost is the
	// expected cost of the implementable policy from the last forward pass
	// (an upper bound). At convergence they agree to within Tol.
	Bound, Cost float64
	// RootAlpha, RootBeta, RootChi are the first-stage decisions.
	RootAlpha, RootBeta, RootChi float64
	// Iterations counts forward/backward sweeps; Cuts counts the cuts the
	// vertex warehouses actually stored.
	Iterations, Cuts int
	Converged        bool
	// CutsDeduped and CutsEvicted count the cuts the warehouses dropped as
	// near-duplicates and aged out over capacity, respectively.
	CutsDeduped, CutsEvicted int
	// VertexSolves counts the vertex LPs actually solved; WarmSolves of
	// them reused a stored basis, and MemoHits counts vertex evaluations
	// served from the last-solve memo without touching the LP solver.
	VertexSolves, WarmSolves, MemoHits int
}

// nestedHookForward and nestedHookBackward, when non-nil, fire before each
// stage batch of the forward and backward passes with the 1-based sweep
// number and the stage depth. They exist solely so tests can cancel the
// context at a deterministic point mid-pass; production code leaves them
// nil.
var (
	nestedHookForward  func(iter, stage int)
	nestedHookBackward func(iter, stage int)
)

// SolveTreeLP solves the LP relaxation (χ ∈ [0,1]) of a stochastic
// lot-sizing scenario tree by the nested L-shaped method of Birge — the
// multistage decomposition the paper cites for SRRP ([28]). Each vertex
// keeps a small local LP over (α, β, χ, θ) where θ under-approximates the
// children's expected cost-to-go as a function of the outgoing inventory β;
// forward passes propagate trial inventories, backward passes return
// supporting cuts from the children's LP duals.
//
// Within each stage the vertex LPs are independent given the parent
// inventories, so both passes batch a stage's vertices across
// Options.Workers goroutines with a barrier between stages. Every vertex
// carries a cut warehouse (deduplicated, LRU-aged) and a stored simplex
// basis: between visits only the balance RHS and the appended cut rows
// change, so re-solves warm-start through lp.SolveFromCtx with the basis
// extended over the new cut slacks.
//
// The result's Bound equals the LP relaxation optimum of the deterministic
// equivalent at convergence (verified against the extensive form in tests)
// and is a valid lower bound on the integer SRRP optimum.
func SolveTreeLP(tp *lotsize.TreeProblem, opts NestedOptions) (*NestedResult, error) {
	return SolveTreeLPCtx(context.Background(), tp, opts)
}

// SolveTreeLPCtx is SolveTreeLP under a context: cancellation is checked
// at every stage barrier and inside every vertex LP; a canceled run
// returns the context error. A background context is bit-identical to
// SolveTreeLP.
func SolveTreeLPCtx(ctx context.Context, tp *lotsize.TreeProblem, opts NestedOptions) (*NestedResult, error) {
	if tp == nil {
		return nil, errors.New("benders: nil tree problem")
	}
	if err := validateTree(tp); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	s := newNestedSolver(tp, opts)
	res := s.res
	for iter := 0; iter < opts.MaxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("benders: canceled after %d sweeps: %w", res.Iterations, err)
		}
		res.Iterations++
		rootObj, err := s.forward(ctx)
		if err != nil {
			return nil, err
		}
		res.Bound = rootObj
		// Exact cost of the implementable forward policy (upper bound).
		total := 0.0
		for v := range s.localC {
			total += s.localC[v]
		}
		res.Cost = total
		if total-rootObj <= opts.Tol*(1+math.Abs(total)) {
			res.Converged = true
			s.collectStats()
			return res, nil
		}
		if err := s.backward(ctx); err != nil {
			return nil, err
		}
	}
	s.collectStats()
	return res, nil
}

// vertexState is the persistent per-vertex state carried across sweeps:
// the cut warehouse, the last optimal basis (for warm starts), and a memo
// of the last solve (so the backward pass re-reads a child's forward
// solution instead of re-solving when nothing about its LP changed). Each
// vertex is owned by exactly one goroutine per stage batch — its own task
// in the forward pass, its parent's task in the backward pass — so no
// field needs locking.
type vertexState struct {
	wh cutWarehouse
	// solves is the per-vertex solve clock driving the warehouse LRU;
	// warm and memoHits feed the run statistics.
	solves, warm, memoHits int

	// basis is the snapshot of the last optimal solve, valid for a re-solve
	// while the warehouse still holds the same cut rows: basisCuts rows at
	// warehouse version basisVersion. Newer appended cuts are bridged by
	// Basis.ExtendAppendedRows; an eviction (version bump) forces a cold
	// solve.
	basis                   *lp.Basis
	basisCuts, basisVersion int

	// memo caches the full outcome of the last solve, keyed by the exact
	// balance RHS and the warehouse state it was solved under.
	memoValid             bool
	memoB                 float64
	memoCuts, memoVersion int
	memoAlpha, memoBeta   float64
	memoChi, memoTheta    float64
	memoObj, memoLambda   float64
}

type nestedSolver struct {
	tp   *lotsize.TreeProblem
	opts NestedOptions
	res  *NestedResult

	children [][]int
	// stages[d] lists the vertices at depth d in ascending index order;
	// parents[d] is its restriction to vertices with children.
	stages, parents [][]int
	maxRemain       []float64
	st              []vertexState

	inB, outB, localC []float64
	errs              []error
}

func newNestedSolver(tp *lotsize.TreeProblem, opts NestedOptions) *nestedSolver {
	n := tp.N()
	s := &nestedSolver{
		tp:        tp,
		opts:      opts,
		res:       &NestedResult{},
		children:  make([][]int, n),
		maxRemain: make([]float64, n),
		st:        make([]vertexState, n),
		inB:       make([]float64, n),
		outB:      make([]float64, n),
		localC:    make([]float64, n),
		errs:      make([]error, n),
	}
	depth := make([]int, n)
	maxDepth := 0
	for v := 1; v < n; v++ {
		s.children[tp.Parent[v]] = append(s.children[tp.Parent[v]], v)
		depth[v] = depth[tp.Parent[v]] + 1
		if depth[v] > maxDepth {
			maxDepth = depth[v]
		}
	}
	s.stages = make([][]int, maxDepth+1)
	s.parents = make([][]int, maxDepth+1)
	for v := 0; v < n; v++ {
		s.stages[depth[v]] = append(s.stages[depth[v]], v)
		if len(s.children[v]) > 0 {
			s.parents[depth[v]] = append(s.parents[depth[v]], v)
		}
		s.st[v].wh.cap = opts.WarehouseCap
	}
	// Remaining path demand bounds α and β (cf. the tightened MILP).
	for v := n - 1; v >= 0; v-- {
		m := 0.0
		for _, c := range s.children[v] {
			if s.maxRemain[c] > m {
				m = s.maxRemain[c]
			}
		}
		s.maxRemain[v] = tp.Demand[v] + m
	}
	return s
}

// forward runs one forward pass stage by stage, propagating trial
// inventories root-down, and returns the root master objective.
func (s *nestedSolver) forward(ctx context.Context) (float64, error) {
	rootObj := 0.0
	for d, verts := range s.stages {
		if h := nestedHookForward; h != nil {
			h(s.res.Iterations, d)
		}
		if err := ctx.Err(); err != nil {
			return 0, fmt.Errorf("benders: canceled in forward stage %d of sweep %d: %w", d, s.res.Iterations, err)
		}
		parallelFor(s.opts.Workers, len(verts), func(i int) {
			v := verts[i]
			b := s.tp.InitialInventory
			if v != 0 {
				b = s.outB[s.tp.Parent[v]]
			}
			s.inB[v] = b
			alpha, beta, chi, theta, obj, _, err := s.solveVertex(ctx, v, b)
			if err != nil {
				s.errs[v] = err
				return
			}
			s.outB[v] = beta
			s.localC[v] = obj - theta
			if v == 0 {
				// Depth 0 holds only the root, so parallelFor runs this
				// batch inline and the writes need no synchronisation.
				rootObj = obj
				s.res.RootAlpha, s.res.RootBeta, s.res.RootChi = alpha, beta, chi
			}
		})
		for _, v := range verts {
			if s.errs[v] != nil {
				return 0, s.errs[v]
			}
		}
	}
	return rootObj, nil
}

// backward runs one backward pass from the deepest non-leaf stage up,
// adding one aggregated cut per non-leaf vertex at its trial β. Each
// parent's task solves its own children sequentially in index order, so
// the cut coefficients accumulate in the same order for every worker
// count.
func (s *nestedSolver) backward(ctx context.Context) error {
	for d := len(s.parents) - 1; d >= 0; d-- {
		verts := s.parents[d]
		if len(verts) == 0 {
			continue
		}
		if h := nestedHookBackward; h != nil {
			h(s.res.Iterations, d)
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("benders: canceled in backward stage %d of sweep %d: %w", d, s.res.Iterations, err)
		}
		parallelFor(s.opts.Workers, len(verts), func(i int) {
			v := verts[i]
			b := s.outB[v]
			var slope, value float64
			for _, c := range s.children[v] {
				// Q_c(b') ≥ Q_c(b) − λ_c (b' − b): the rhs dual is dObj/dD
				// and b enters as −D.
				_, _, _, _, objC, lamC, err := s.solveVertex(ctx, c, b)
				if err != nil {
					s.errs[v] = err
					return
				}
				value += objC
				slope += -lamC
			}
			st := &s.st[v]
			// θ ≥ slope·β + (value − slope·b).
			st.wh.add(slope, value-slope*b, st.solves)
		})
		for _, v := range verts {
			if s.errs[v] != nil {
				return s.errs[v]
			}
		}
	}
	return nil
}

// solveVertex evaluates the local LP at vertex v for incoming inventory b.
// Variables: [α, β, χ] plus θ on non-leaves. Returns the solution pieces,
// the objective, and the dual of the balance row (dObj/dD, so dObj/db is
// its negation). It first consults the memo of
// the last solve — a hit requires the identical RHS and an unchanged cut
// set, under which a re-solve would reproduce the cached outcome — and
// otherwise warm-starts from the stored basis when the warehouse still
// contains every row the snapshot covered.
func (s *nestedSolver) solveVertex(ctx context.Context, v int, b float64) (alpha, beta, chi, theta, obj, lambda float64, err error) {
	st := &s.st[v]
	nv := 3
	if len(s.children[v]) > 0 {
		nv = 4
	}
	ncuts := 0
	if nv == 4 {
		ncuts = len(st.wh.cuts)
	}
	if st.memoValid &&
		st.memoCuts == ncuts && st.memoVersion == st.wh.version &&
		st.memoB == b { //lint:ignore rentlint/floatcmp memo key: reuse is sound only for a bit-identical rhs, where a re-solve would repeat the cached run exactly
		st.memoHits++
		return st.memoAlpha, st.memoBeta, st.memoChi, st.memoTheta, st.memoObj, st.memoLambda, nil
	}
	prob := &lp.Problem{
		C:     make([]float64, nv),
		Lower: make([]float64, nv),
		Upper: make([]float64, nv),
		SA:    make([]lp.SparseRow, 0, 3+ncuts),
	}
	pv := s.tp.Prob[v]
	prob.C[0] = pv * s.tp.Unit[v]
	prob.C[1] = pv * s.tp.Hold[v]
	prob.C[2] = pv * s.tp.Setup[v]
	prob.Upper[0] = s.maxRemain[v] + 1
	prob.Upper[1] = math.Inf(1) // large ε can push β past the demand bound
	prob.Upper[2] = 1
	if nv == 4 {
		prob.C[3] = 1
		// All costs are nonnegative, so 0 is a valid floor; the slack
		// absorbs LP-level rounding of near-zero cost-to-go values.
		prob.Lower[3] = -num.ThetaFloorTol
		prob.Upper[3] = math.Inf(1)
	}
	// Balance: α − β = D_v − b.
	prob.AddSparseRow([]int{0, 1}, []float64{1, -1}, lp.EQ, s.tp.Demand[v]-b)
	// Forcing: α − Bα·χ ≤ 0 with the tight per-vertex bound.
	prob.AddSparseRow([]int{0, 2}, []float64{1, -s.maxRemain[v]}, lp.LE, 0)
	// Valid inequality α − β ≤ D·χ (production serves the current
	// demand or enters stock), tightening the relaxation.
	prob.AddSparseRow([]int{0, 1, 2}, []float64{1, -1, -s.tp.Demand[v]}, lp.LE, 0)
	// Cuts: θ − a·β ≥ r, in warehouse order.
	for i := 0; i < ncuts; i++ {
		ct := &st.wh.cuts[i]
		prob.AddSparseRow([]int{1, 3}, []float64{-ct.a, 1}, lp.GE, ct.r)
	}
	st.solves++
	var sol *lp.Solution
	warm := false
	if st.basis != nil &&
		st.basisVersion == st.wh.version && ncuts >= st.basisCuts {
		basis := st.basis
		if ncuts > st.basisCuts {
			basis = basis.ExtendAppendedRows(nv, ncuts-st.basisCuts)
		}
		sol, err = lp.SolveFromCtx(ctx, prob, basis, lp.Options{})
		warm = err == nil && sol.WarmStart != lp.WarmNone && sol.WarmStart != lp.WarmFallback
	} else {
		sol, err = lp.SolveCtx(ctx, prob, lp.Options{})
	}
	if err != nil {
		return 0, 0, 0, 0, 0, 0, err
	}
	if sol.Status != lp.StatusOptimal {
		return 0, 0, 0, 0, 0, 0, fmt.Errorf("benders: vertex %d LP %v (b=%g)", v, sol.Status, b)
	}
	if warm {
		st.warm++
	}
	// Cuts binding at the optimum keep shaping the value function: refresh
	// their LRU stamp so aging evicts only the inactive ones.
	for i := 0; i < ncuts; i++ {
		if !num.Zero(sol.Duals[3+i], num.DriftTol) {
			st.wh.touch(i, st.solves)
		}
	}
	alpha, beta, chi = sol.X[0], sol.X[1], sol.X[2]
	if nv == 4 {
		theta = sol.X[3]
	}
	obj, lambda = sol.Obj, sol.Duals[0]
	st.basis = sol.Basis
	st.basisCuts = ncuts
	st.basisVersion = st.wh.version
	st.memoValid = true
	st.memoB = b
	st.memoCuts = ncuts
	st.memoVersion = st.wh.version
	st.memoAlpha, st.memoBeta = alpha, beta
	st.memoChi, st.memoTheta = chi, theta
	st.memoObj, st.memoLambda = obj, lambda
	return alpha, beta, chi, theta, obj, lambda, nil
}

// collectStats folds the per-vertex counters into the result, summing in
// vertex order.
func (s *nestedSolver) collectStats() {
	r := s.res
	r.Cuts, r.CutsDeduped, r.CutsEvicted = 0, 0, 0
	r.VertexSolves, r.WarmSolves, r.MemoHits = 0, 0, 0
	for v := range s.st {
		st := &s.st[v]
		r.Cuts += st.wh.added
		r.CutsDeduped += st.wh.deduped
		r.CutsEvicted += st.wh.evicted
		r.VertexSolves += st.solves
		r.WarmSolves += st.warm
		r.MemoHits += st.memoHits
	}
}

func validateTree(tp *lotsize.TreeProblem) error {
	n := tp.N()
	if n == 0 {
		return errors.New("benders: empty tree")
	}
	if len(tp.Prob) != n || len(tp.Setup) != n || len(tp.Unit) != n ||
		len(tp.Hold) != n || len(tp.Demand) != n {
		return errors.New("benders: tree slice mismatch")
	}
	if tp.Parent[0] != -1 {
		return errors.New("benders: vertex 0 must be the root")
	}
	for v := 1; v < n; v++ {
		if tp.Parent[v] < 0 || tp.Parent[v] >= v {
			return fmt.Errorf("benders: vertex %d parent %d not topological", v, tp.Parent[v])
		}
	}
	for v := 0; v < n; v++ {
		// !(p > 0) also rejects NaN; the upper bound rejects +Inf.
		if !(tp.Prob[v] > 0) || tp.Prob[v] > 1+num.ProbMassTol {
			return fmt.Errorf("benders: vertex %d probability %g outside (0, 1]", v, tp.Prob[v])
		}
		if badCoefficient(tp.Setup[v]) {
			return fmt.Errorf("benders: vertex %d setup cost %g not finite and nonnegative", v, tp.Setup[v])
		}
		if badCoefficient(tp.Unit[v]) {
			return fmt.Errorf("benders: vertex %d unit cost %g not finite and nonnegative", v, tp.Unit[v])
		}
		if badCoefficient(tp.Hold[v]) {
			return fmt.Errorf("benders: vertex %d holding cost %g not finite and nonnegative", v, tp.Hold[v])
		}
		if badCoefficient(tp.Demand[v]) {
			return fmt.Errorf("benders: vertex %d demand %g not finite and nonnegative", v, tp.Demand[v])
		}
	}
	if badCoefficient(tp.InitialInventory) {
		return errors.New("benders: initial inventory must be finite and nonnegative")
	}
	return nil
}

// badCoefficient reports a value unusable as a cost, demand, or inventory
// datum: NaN, ±Inf, or negative. Such values would silently corrupt the
// vertex LPs (NaN objective coefficients make every comparison false, an
// infinite demand breaks the maxRemain bounds), so validateTree rejects
// them up front, mirroring lotsize's validate.
func badCoefficient(x float64) bool {
	return math.IsNaN(x) || math.IsInf(x, 0) || x < 0
}
