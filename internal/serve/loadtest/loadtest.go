// Package loadtest is the rentpland load harness: it drives a fleet of
// synthetic tenants — price traces and base distributions drawn from the
// internal/market generator — through an in-process serve.Server and
// reports latency percentiles and throughput. `make bench-serve` runs it
// over ≥1000 concurrent plan requests and records the result in
// BENCH_serve.json; the race suite runs a small configuration under -race.
package loadtest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"rentplan/internal/market"
	"rentplan/internal/serve"
	"rentplan/internal/stats"
)

// Config sizes one load run.
type Config struct {
	// Tenants is the number of concurrent synthetic tenants; each runs its
	// own goroutine issuing requests back to back.
	Tenants int
	// StepsPerTenant is the number of rolling step requests each tenant
	// issues (slots 0..StepsPerTenant-1).
	StepsPerTenant int
	// Cohorts groups tenants onto shared market states: tenants in the same
	// cohort observe the same trace, so their srrp trees share a cache
	// entry. ≤0 selects 4.
	Cohorts int
	// Workers/Queue configure the daemon under test (serve.Config).
	Workers, Queue int
	// Budget is the daemon's default per-request solve budget.
	Budget time.Duration
	// Capacitated adds a bottleneck constraint to the srrp cohort warm-up
	// requests, forcing the MILP path and exercising shared root bases.
	Capacitated bool
	// Seed fixes the synthetic market and demand draws.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Tenants <= 0 {
		c.Tenants = 50
	}
	if c.StepsPerTenant <= 0 {
		c.StepsPerTenant = 4
	}
	if c.Cohorts <= 0 {
		c.Cohorts = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Report is the outcome of one load run; it marshals to the BENCH_serve.json
// schema.
type Report struct {
	Requests  int `json:"requests"`
	OK        int `json:"ok"`
	Rejected  int `json:"rejected_429"`
	Errors    int `json:"errors"`
	PlanReuse int `json:"plan_reuse"`
	CacheHits int `json:"tree_cache_hits"`
	WarmRoots int `json:"warm_roots"`

	WallMS      float64 `json:"wall_ms"`
	PlansPerSec float64 `json:"plans_per_sec"`
	P50MS       float64 `json:"p50_ms"`
	P99MS       float64 `json:"p99_ms"`
	MaxMS       float64 `json:"max_ms"`
}

// tenantWorld is one synthetic tenant's market view and workload.
type tenantWorld struct {
	name      string
	cohort    int
	demand    []float64
	rootPrice float64
	base      stats.Discrete
	inventory float64
}

// buildWorlds derives the tenant fleet from the market generator: one spot
// trace per cohort, a per-tenant demand series, and a base distribution
// summarised from the cohort's trace like the paper's historical summary.
func buildWorlds(cfg Config) ([]*tenantWorld, error) {
	horizon := cfg.StepsPerTenant + 4 // a little lookahead beyond the last step
	worlds := make([]*tenantWorld, 0, cfg.Tenants)
	rng := stats.NewRNG(cfg.Seed)
	for c := 0; c < cfg.Cohorts; c++ {
		gen, err := market.NewGenerator(market.C1Medium, cfg.Seed+int64(c))
		if err != nil {
			return nil, err
		}
		tr := gen.Trace(7)
		prices, err := tr.Hourly(0, horizon)
		if err != nil {
			return nil, err
		}
		base := stats.NewDiscreteFromSamples(prices, 0.005)
		for i := c; i < cfg.Tenants; i += cfg.Cohorts {
			dem := make([]float64, horizon)
			for j := range dem {
				dem[j] = 1 + float64(rng.Intn(8))
			}
			worlds = append(worlds, &tenantWorld{
				name:      fmt.Sprintf("tenant-%03d", i),
				cohort:    c,
				demand:    dem,
				rootPrice: prices[0],
				base:      base,
			})
		}
	}
	return worlds, nil
}

// Run executes one load run against a fresh in-process daemon.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	worlds, err := buildWorlds(cfg)
	if err != nil {
		return nil, err
	}
	s := serve.New(serve.Config{
		Workers:       cfg.Workers,
		Queue:         cfg.Queue,
		DefaultBudget: cfg.Budget,
		MaxBudget:     time.Minute,
	})

	rep := &Report{}
	var mu sync.Mutex
	var latencies []float64
	record := func(code int, resp *serve.PlanResponse, d time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		rep.Requests++
		switch {
		case code == http.StatusOK:
			rep.OK++
			latencies = append(latencies, float64(d)/float64(time.Millisecond))
			if resp.PlanReuse {
				rep.PlanReuse++
			}
			if resp.CacheHit {
				rep.CacheHits++
			}
			if resp.WarmRoot {
				rep.WarmRoots++
			}
		case code == http.StatusTooManyRequests:
			rep.Rejected++
		default:
			rep.Errors++
		}
	}

	post := func(req *serve.PlanRequest) (int, *serve.PlanResponse, time.Duration) {
		body, _ := json.Marshal(req)
		start := time.Now()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
		d := time.Since(start)
		if rec.Code != http.StatusOK {
			return rec.Code, nil, d
		}
		var resp serve.PlanResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			return http.StatusInternalServerError, nil, d
		}
		return rec.Code, &resp, d
	}

	// The first tenant of each cohort (its leader) sends its srrp warm-up
	// alone; the rest of the cohort sends theirs once the leader's has
	// completed, so they find its tree and root basis in the cache instead
	// of racing it to build them.
	leaderDone := make([]chan struct{}, cfg.Cohorts)
	for c := range leaderDone {
		leaderDone[c] = make(chan struct{})
	}
	start := time.Now()
	var wg sync.WaitGroup
	for k, w := range worlds {
		leader := k == 0 || worlds[k-1].cohort != w.cohort
		wg.Add(1)
		go func(w *tenantWorld) {
			defer wg.Done()
			if !leader {
				<-leaderDone[w.cohort]
			}
			// Warm-up: one srrp plan against the cohort's shared market
			// state; every tenant after the leader hits the tree cache.
			srrp := w.planRequest("srrp", cfg)
			for attempt := 0; ; attempt++ {
				code, resp, d := post(srrp)
				record(code, resp, d)
				if code != http.StatusTooManyRequests || attempt >= 50 {
					break
				}
				time.Sleep(time.Millisecond << uint(attempt%6))
			}
			if leader {
				close(leaderDone[w.cohort])
			}
			// Rolling steps: the tenant's own demand, replanned on stride 2,
			// so half the slots ride the previous plan.
			for slot := 0; slot < cfg.StepsPerTenant; slot++ {
				req := w.planRequest("step", cfg)
				req.Slot = slot
				req.Inventory = w.inventory
				for attempt := 0; ; attempt++ {
					code, resp, d := post(req)
					record(code, resp, d)
					if code == http.StatusOK && resp.Generate != nil {
						// Crude inventory roll-forward to keep requests honest.
						w.inventory += *resp.Generate - w.demand[slot]
						if w.inventory < 0 {
							w.inventory = 0
						}
					}
					if code != http.StatusTooManyRequests || attempt >= 50 {
						break
					}
					time.Sleep(time.Millisecond << uint(attempt%6))
				}
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)

	rep.WallMS = float64(wall) / float64(time.Millisecond)
	if wall > 0 {
		rep.PlansPerSec = float64(rep.OK) / wall.Seconds()
	}
	rep.P50MS = percentile(latencies, 0.50)
	rep.P99MS = percentile(latencies, 0.99)
	rep.MaxMS = percentile(latencies, 1)
	return rep, nil
}

// planRequest builds a tenant's request for the given model.
func (w *tenantWorld) planRequest(model string, cfg Config) *serve.PlanRequest {
	const stages = 3
	req := &serve.PlanRequest{
		Tenant:     w.name,
		Model:      model,
		Class:      string(market.C1Medium),
		Bid:        w.rootPrice * 1.5,
		Stages:     stages,
		MaxBranch:  3,
		RootPrice:  w.rootPrice,
		BaseValues: w.base.Values,
		BaseProbs:  w.base.Probs,
		Replan:     2,
	}
	if model == "srrp" {
		// The cohort-shared instance: identical demand for every tenant of
		// the cohort so the tree AND the root basis are reusable.
		req.Demand = []float64{2, 3, 2, 4}[:stages+1]
		if cfg.Capacitated {
			req.Capacity = []float64{4, 4, 4, 4}[:stages+1]
			req.ConsumptionRate = 1
		}
	} else {
		req.Demand = w.demand
	}
	return req
}

// percentile returns the q-quantile (nearest-rank) of xs in milliseconds.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
