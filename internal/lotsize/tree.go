package lotsize

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
)

// TreeProblem is stochastic uncapacitated lot-sizing on a scenario tree —
// the structure of SRRP's deterministic equivalent (Eq. 13–19) without the
// bottleneck constraint. Vertices are indexed 0..n−1 in topological order
// (Parent[v] < v, Parent[0] = −1). Prob[v] is the absolute probability p_v
// of reaching vertex v (Σ over each stage = 1). Costs are unweighted; the
// solver applies the probability weights of objective (13). All data must
// be finite.
//
// The inventory β is a *state variable*: β_v = β_{π(v)} + α_v − D_v must be
// nonnegative at every vertex, so production decisions hedge across
// branches (the same stored data serves whichever scenario unfolds).
type TreeProblem struct {
	Parent []int
	Prob   []float64
	// Setup, Unit, Hold and Demand are per-vertex cost/demand data:
	// Setup_v = Ĉp(i,τ(v)), Unit_v = C⁺f·Φ, Hold_v = Cs+Cio, Demand_v = D.
	Setup  []float64
	Unit   []float64
	Hold   []float64
	Demand []float64
	// InitialInventory is the ε of constraint (17) at the root.
	InitialInventory float64
}

// N returns the number of vertices.
func (p *TreeProblem) N() int { return len(p.Parent) }

func (p *TreeProblem) validate() error {
	n := p.N()
	if n == 0 {
		return errors.New("lotsize: empty tree")
	}
	if len(p.Prob) != n || len(p.Setup) != n || len(p.Unit) != n || len(p.Hold) != n || len(p.Demand) != n {
		return errors.New("lotsize: tree slice length mismatch")
	}
	if p.Parent[0] != -1 {
		return errors.New("lotsize: vertex 0 must be the root (Parent[0] = -1)")
	}
	if !finite(p.InitialInventory) {
		return fmt.Errorf("lotsize: non-finite initial inventory %g", p.InitialInventory)
	}
	if p.InitialInventory < 0 {
		return errors.New("lotsize: negative initial inventory")
	}
	for v := 0; v < n; v++ {
		if v > 0 && (p.Parent[v] < 0 || p.Parent[v] >= v) {
			return fmt.Errorf("lotsize: vertex %d has invalid parent %d (need topological order)", v, p.Parent[v])
		}
		if !finite(p.Prob[v]) || !finite(p.Demand[v]) || !finite(p.Setup[v]) || !finite(p.Unit[v]) || !finite(p.Hold[v]) {
			return fmt.Errorf("lotsize: non-finite data at vertex %d", v)
		}
		if p.Prob[v] <= 0 || p.Prob[v] > 1+1e-9 {
			return fmt.Errorf("lotsize: vertex %d has probability %g outside (0,1]", v, p.Prob[v])
		}
		if p.Demand[v] < 0 || p.Setup[v] < 0 || p.Unit[v] < 0 || p.Hold[v] < 0 {
			return fmt.Errorf("lotsize: negative data at vertex %d", v)
		}
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// TreeSolution is an optimal plan for a TreeProblem.
type TreeSolution struct {
	// Cost is the optimal probability-weighted objective, including the
	// holding cost of carrying the initial inventory.
	Cost float64
	// Produce is α_v, Setup is χ_v, Inventory is β_v per vertex.
	Produce   []float64
	Setup     []bool
	Inventory []float64
}

// SolveTree solves the tree problem exactly by a dynamic program in the
// spirit of Guan & Miller's polynomial algorithm for stochastic
// uncapacitated lot-sizing.
//
// Substituting β_v = Y_v − cumD_v (with Y_v = ε + Σ_{u⪯v} α_u the path-
// cumulative supply and cumD_v the path-cumulative demand) turns the
// objective into
//
//	Σ_v p_v·Setup_v·χ_v + ĉ_v·α_v  +  Σ_v p_v·Hold_v·(ε − cumD_v),
//
// where ĉ_v = p_v·Unit_v + Σ_{w ∈ subtree(v)} p_w·Hold_w ≥ 0 and the second
// sum is a constant. Feasibility is the covering condition Y_v ≥ cumD_v.
// Because every ĉ_v ≥ 0, an optimal solution raises Y only to values in
// {cumD_w : w ∈ subtree(v)} (a binding future requirement), which yields a
// finite DP over states (v, Y entering v). Y is therefore always ε or one
// of the cumD values, and the DP keys its states by Y's rank among them.
func SolveTree(p *TreeProblem) (*TreeSolution, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	n := p.N()
	d := newTreeDP(p)
	defer d.release()
	root := d.solve(0, d.epsRank)
	if math.IsInf(root, 1) {
		return nil, errors.New("lotsize: infeasible tree plan (internal error)")
	}
	constCost := 0.0
	for v := 0; v < n; v++ {
		constCost += p.Prob[v] * p.Hold[v] * (p.InitialInventory - d.cumD[v])
	}
	sol := &TreeSolution{
		Cost:      root + constCost,
		Produce:   make([]float64, n),
		Setup:     make([]bool, n),
		Inventory: make([]float64, n),
	}
	// Reconstruct the plan by replaying the memoised decisions in
	// topological order; yOut[v] is the supply Y leaving v, carried as the
	// exact value the DP saw along that path.
	// The two rows reuse h and rankOf, which the DP no longer reads; the
	// plan itself is built in fresh slices, never in the pooled workspace.
	yOut, yOutRank := d.h, d.rankOf
	for v := 0; v < n; v++ {
		y, yr := p.InitialInventory, d.epsRank
		if v > 0 {
			y, yr = yOut[p.Parent[v]], yOutRank[p.Parent[v]]
		}
		i, ok := d.memo.find(d.key(int32(v), yr))
		if !ok {
			return nil, errors.New("lotsize: reconstruction state missing (internal error)")
		}
		if r := d.memo.slots[i].target; r >= 0 {
			sol.Produce[v] = d.vals[r] - y
			sol.Setup[v] = true
			y, yr = d.vals[r], r
		}
		sol.Inventory[v] = y - d.cumD[v]
		if sol.Inventory[v] < 0 && sol.Inventory[v] > -1e-9 {
			sol.Inventory[v] = 0
		}
		yOut[v], yOutRank[v] = y, yr
	}
	return sol, nil
}

// treeDP is the state of one SolveTree call. Supply levels are identified
// by rank: ranks 0..R−1 are the R distinct cumD values in ascending order,
// and ε has rank R unless it equals one of them.
type treeDP struct {
	p *TreeProblem
	// fl, ix and tgtBuf back every row below; a pooled workspace keeps
	// them, and the memo's slots, for the next solve.
	fl     []float64
	ix     []int32
	tgtBuf []int32
	// The children of v are kids[kidOff[v]:kidOff[v+1]], in index order.
	kidOff, kids []int32
	cumD         []float64
	h            []float64 // subtree holding mass H_v
	chat         []float64 // modified unit cost ĉ_v
	vals         []float64 // supply level of each rank
	rankOf       []int32   // rank of cumD_v
	// The production targets of v, the ranks of the distinct cumD values
	// of its subtree, are tgt[tgtOff[2v]:tgtOff[2v+1]] in ascending order.
	tgt, tgtOff []int32
	epsRank     int32
	nRank       uint64
	memo        memoTable
}

// treeDPPool recycles SolveTree workspaces, so a solve allocates only the
// plan it returns once the pool is warm. A pooled workspace keeps only
// buffers: newTreeDP re-derives every row a solve reads, and release drops
// the problem reference.
var treeDPPool = sync.Pool{New: func() any { return new(treeDP) }}

// newTreeDP takes a workspace from the pool and sets it up for p.
func newTreeDP(p *TreeProblem) *treeDP {
	d := treeDPPool.Get().(*treeDP)
	d.reset(p)
	return d
}

// maxPooledBytes caps the buffers a pooled workspace keeps. The largest
// benchmark tree (6 stages, branch 4, per-vertex demands) needs about
// 9.5 MiB and the reproduction's trees well under 1 MiB; a workspace grown
// far beyond that by one huge tree is dropped, not recycled.
const maxPooledBytes = 32 << 20

// release returns the workspace to the pool, unless it outgrew
// maxPooledBytes. The TreeSolution SolveTree builds shares no memory with
// it.
func (d *treeDP) release() {
	d.p = nil
	if d.footprint() <= maxPooledBytes {
		treeDPPool.Put(d)
	}
}

// footprint is the size in bytes of the buffers d keeps; a memo slot takes
// 24.
func (d *treeDP) footprint() int {
	return 8*cap(d.fl) + 4*(cap(d.ix)+cap(d.tgtBuf)) + 24*(cap(d.memo.slots)+cap(d.memo.spare))
}

// reset prepares a (possibly recycled) workspace for one solve of p. Every
// row is fully rewritten before the DP reads it, except kidOff, which is
// counted into and so is cleared first.
func (d *treeDP) reset(p *TreeProblem) {
	n := p.N()
	// Two backing arrays hold every per-vertex row; vals, which gains ε's
	// rank at most, grows into the last n+1 floats.
	d.fl = grow(d.fl, 4*n+1)
	d.ix = grow(d.ix, 6*n)
	fl, ix := d.fl, d.ix
	d.p = p
	d.cumD, d.h, d.chat, d.vals = fl[:n], fl[n:2*n], fl[2*n:3*n], fl[3*n:3*n]
	d.kidOff, d.kids, d.rankOf, d.tgtOff = ix[:n+1], ix[n+1:2*n], ix[2*n:3*n], ix[3*n:5*n]
	depth := ix[5*n:]

	// Children in compressed sparse row form.
	clear(d.kidOff)
	for v := 1; v < n; v++ {
		d.kidOff[p.Parent[v]+1]++
	}
	for v := 0; v < n; v++ {
		d.kidOff[v+1] += d.kidOff[v]
	}
	next := depth // borrowed as the fill cursor
	copy(next, d.kidOff[:n])
	for v := 1; v < n; v++ {
		d.kids[next[p.Parent[v]]] = int32(v)
		next[p.Parent[v]]++
	}

	// Path-cumulative demand; Σ_v (depth_v + 1) bounds the target lists.
	nTgt := 0
	for v := 0; v < n; v++ {
		if v == 0 {
			d.cumD[0] = p.Demand[0]
			depth[0] = 0
		} else {
			d.cumD[v] = d.cumD[p.Parent[v]] + p.Demand[v]
			depth[v] = depth[p.Parent[v]] + 1
		}
		nTgt += int(depth[v]) + 1
	}
	// Subtree holding mass H_v = Σ_{w ∈ subtree(v)} p_w·Hold_w and the
	// modified unit cost ĉ_v, via reverse topological order.
	for v := n - 1; v >= 0; v-- {
		d.h[v] = p.Prob[v] * p.Hold[v]
		for _, c := range d.children(v) {
			d.h[v] += d.h[c]
		}
	}
	for v := 0; v < n; v++ {
		d.chat[v] = p.Prob[v]*p.Unit[v] + d.h[v]
	}

	// Ranks of the supply levels. A vertex whose cumD equals its
	// predecessor's adds no value and takes the predecessor's rank: in a
	// breadth-first tree with one demand per stage, each stage is one such
	// run, so only a handful of values are sorted and searched.
	for v := 0; v < n; v++ {
		if v == 0 || d.cumD[v] != d.cumD[v-1] { //lint:ignore rentlint/floatcmp exact equality is intended: Compact merges only equal values, so only they share a rank
			d.vals = append(d.vals, d.cumD[v])
		}
	}
	slices.Sort(d.vals)
	d.vals = slices.Compact(d.vals)
	for v := 0; v < n; v++ {
		if v > 0 && d.cumD[v] == d.cumD[v-1] { //lint:ignore rentlint/floatcmp exact equality is intended: an equal value has the equal rank, any other is searched
			d.rankOf[v] = d.rankOf[v-1]
			continue
		}
		r, _ := slices.BinarySearch(d.vals, d.cumD[v])
		d.rankOf[v] = int32(r)
	}
	r, found := slices.BinarySearch(d.vals, p.InitialInventory)
	if !found {
		r = len(d.vals)
		d.vals = append(d.vals, p.InitialInventory)
	}
	d.epsRank = int32(r)
	d.nRank = uint64(len(d.vals))

	// Target lists, merged up from the children (reverse topological).
	// The two merge rows live in the still-unused tail of tgt.
	nr := len(d.vals)
	d.tgtBuf = grow(d.tgtBuf, nTgt+2*nr)
	d.tgt = d.tgtBuf[:0]
	cur, spare := d.tgt[nTgt:nTgt:nTgt+nr], d.tgt[nTgt+nr:nTgt+nr:nTgt+2*nr]
	for v := n - 1; v >= 0; v-- {
		cur = append(cur[:0], d.rankOf[v])
		for _, c := range d.children(v) {
			merged := mergeRanks(spare[:0], cur, d.targets(int(c)))
			cur, spare = merged, cur
		}
		d.tgtOff[2*v] = int32(len(d.tgt))
		d.tgt = append(d.tgt, cur...)
		d.tgtOff[2*v+1] = int32(len(d.tgt))
	}

	d.memo.init(2*n, uint64(n)*d.nRank)
}

// grow returns buf resliced to length n, reallocated only when its capacity
// is short. The contents are not cleared.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

func (d *treeDP) children(v int) []int32 { return d.kids[d.kidOff[v]:d.kidOff[v+1]] }

func (d *treeDP) targets(v int) []int32 { return d.tgt[d.tgtOff[2*v]:d.tgtOff[2*v+1]] }

// key packs the DP state (v, rank of Y entering v) into a nonzero memo key.
func (d *treeDP) key(v, yr int32) uint64 { return uint64(v)*d.nRank + uint64(yr) + 1 }

// solve returns the optimal cost of the subtree of v when the supply
// entering v has rank yr, memoising the decision.
func (d *treeDP) solve(v, yr int32) float64 {
	key := d.key(v, yr)
	if i, ok := d.memo.find(key); ok {
		return d.memo.slots[i].cost
	}
	const tol = 1e-12
	p := d.p
	y := d.vals[yr]
	kids := d.children(int(v))
	best, bestTarget := math.Inf(1), int32(-1)
	// Option 1: no production at v (feasible if supply already covers the
	// cumulative demand through v).
	if y >= d.cumD[v]-tol {
		c := 0.0
		for _, ch := range kids {
			c += d.solve(ch, yr)
		}
		if c < best {
			best = c
		}
	}
	// Option 2: produce up to a binding future requirement t > y.
	for _, r := range d.targets(int(v)) {
		t := d.vals[r]
		if t <= y+tol || t < d.cumD[v]-tol {
			continue
		}
		c := p.Prob[v]*p.Setup[v] + d.chat[v]*(t-y)
		if c >= best {
			continue // children costs are ≥ 0; prune
		}
		for _, ch := range kids {
			c += d.solve(ch, r)
			if c >= best {
				break
			}
		}
		if c < best {
			best, bestTarget = c, r
		}
	}
	d.memo.insert(key, best, bestTarget)
	return best
}

// mergeRanks appends the ascending union of the ascending lists a and b to
// out.
func mergeRanks(out, a, b []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// memoTable maps DP state keys to decisions. It has two ways to index its
// slot array. When the key space is small, at most twice the slots a
// hashed table would start with, the key itself is the slot index and the
// table never grows; SRRP trees, whose R is at most the stage count + 2,
// take this path. Otherwise it is an open-addressing hash map with linear
// probing and Fibonacci hashing, as trees with a demand per vertex
// (R ≈ n) need. It keeps two slot arrays: the live table and the one it
// last grew out of, which the next growth or the next init reuses when it
// is large enough.
type memoTable struct {
	slots, spare []memoSlot
	shift        uint
	used         int
	direct       bool
}

type memoSlot struct {
	key    uint64 // 0 marks an empty slot
	cost   float64
	target int32 // rank produced up to, or −1 for no production
}

// init empties the table and sizes it for capacity keys drawn from
// 1..keys, clearing a prefix of the larger retained array when that is big
// enough.
func (m *memoTable) init(capacity int, keys uint64) {
	size, shift := 16, uint(60)
	for size < 2*capacity {
		size, shift = 2*size, shift-1
	}
	m.direct = keys+1 <= uint64(2*size)
	if m.direct {
		size = int(keys + 1)
	}
	if cap(m.spare) > cap(m.slots) {
		m.slots, m.spare = m.spare, m.slots
	}
	m.slots = grow(m.slots, size)
	clear(m.slots)
	m.shift, m.used = shift, 0
}

// find returns the slot holding key, or the empty slot where it belongs.
func (m *memoTable) find(key uint64) (int, bool) {
	if m.direct {
		return int(key), m.slots[key].key == key
	}
	mask := uint64(len(m.slots) - 1)
	i := (key * 0x9e3779b97f4a7c15) >> m.shift
	for {
		switch m.slots[i].key {
		case key:
			return int(i), true
		case 0:
			return int(i), false
		}
		i = (i + 1) & mask
	}
}

// insert adds a key that is not in the table. A hashed table grows to
// keep its load at most ½; a direct one has a slot for every key.
func (m *memoTable) insert(key uint64, cost float64, target int32) {
	if !m.direct && 2*(m.used+1) > len(m.slots) {
		old := m.slots
		m.slots, m.spare, m.shift = grow(m.spare, 2*len(old)), old, m.shift-1
		clear(m.slots)
		for _, s := range old {
			if s.key != 0 {
				i, _ := m.find(s.key)
				m.slots[i] = s
			}
		}
	}
	i, _ := m.find(key)
	m.slots[i] = memoSlot{key: key, cost: cost, target: target}
	m.used++
}
