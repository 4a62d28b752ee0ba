package serve

import (
	"sync"

	"rentplan/internal/core"
	"rentplan/internal/lp"
)

// tenant holds the rolling-horizon state of one application between step
// requests: the committed stochastic plan walked through a core.Roller (the
// same walk the batch executors use), and the last MILP root basis for
// warm-starting the next re-plan.
// All fields are guarded by mu; a tenant's requests are serialised on it,
// so two concurrent requests for the same tenant cannot interleave their
// read-modify-write of the plan state (they queue, in arrival order at the
// mutex). Distinct tenants share nothing except the immutable tree cache.
type tenant struct {
	mu sync.Mutex

	// roll holds the committed plan, its root slot, its expiry (root plus
	// the stride of the request that planned it) and the executed path.
	roll core.Roller

	// basis is the root basis of the tenant's last capacitated re-plan,
	// fed back through Params.Solver.RootBasis on the next one. The MILP
	// shape of a rolling re-plan changes with the remaining horizon, so the
	// basis is fingerprinted like the cache's (basisFor) and only reused
	// for a structurally identical solve.
	basis    *lp.Basis
	basisFor uint64
}

// tenants is the daemon's tenant registry.
type tenants struct {
	mu sync.Mutex
	m  map[string]*tenant
}

func newTenants() *tenants { return &tenants{m: make(map[string]*tenant)} }

// get returns the named tenant, creating it on first use.
func (ts *tenants) get(name string) *tenant {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	t, ok := ts.m[name]
	if !ok {
		t = &tenant{}
		ts.m[name] = t
	}
	return t
}

// len reports the number of known tenants.
func (ts *tenants) len() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.m)
}
