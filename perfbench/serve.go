package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"rentplan/internal/core"
	"rentplan/internal/market"
	"rentplan/internal/scenario"
	"rentplan/internal/serve"
	"rentplan/internal/stats"
)

// serveShape fixes one serve workload: the request mix, the load and the
// goodput rule. Only the seed varies the inputs.
type serveShape struct {
	Name        string  `json:"name"`
	Stages      int     `json:"stages"`
	MaxBranch   int     `json:"max_branch"`
	Capacitated bool    `json:"capacitated"`
	Cohorts     int     `json:"cohorts"`
	Tenants     int     `json:"tenants"`
	Episode     int     `json:"episode_slots"` // step slots per tenant episode, after one srrp
	Stride      int     `json:"stride"`
	Workers     int     `json:"pool_workers"`
	Conns       int     `json:"connections"`
	RefRate     float64 `json:"reference_rps"`
	TailQ       float64 `json:"tail_quantile"`
	LimitMS     float64 `json:"limit_ms"`
	Share       float64 `json:"goodput_share"`
	LadderLo    float64 `json:"ladder_lo_rps"`
	LadderStep  float64 `json:"ladder_step"`
	LadderRungs int     `json:"ladder_rungs"`
	RungReqs    int     `json:"rung_requests"`
	Setups      int     `json:"setups"`
}

var dpShape = serveShape{
	Name: "serve-dp", Stages: 5, MaxBranch: 4, Cohorts: 64, Tenants: 192, Episode: 24, Stride: 2,
	Workers: 2, Conns: 2, RefRate: 750, TailQ: 0.99, LimitMS: 25, Share: 0.99,
	LadderLo: 200, LadderStep: 1.06, LadderRungs: 48, RungReqs: 1200, Setups: 5,
}

var milpShape = serveShape{
	Name: "serve-milp", Stages: 3, MaxBranch: 3, Capacitated: true, Cohorts: 64, Tenants: 192, Episode: 24, Stride: 2,
	Workers: 2, Conns: 2, RefRate: 1000, TailQ: 0.95, LimitMS: 250, Share: 0.95,
	LadderLo: 200, LadderStep: 1.06, LadderRungs: 48, RungReqs: 1200, Setups: 5,
}

const (
	class      = market.C1Medium
	histDays   = 14 // history summarised into each cohort's base distribution
	baseValues = 8  // values of that summary
	episodes   = 40 // distinct market windows per cohort before they repeat
	// Demand per slot is uniform on [minDemand, maxDemand] GB, the scale at
	// which renting, holding and transfer costs trade off. The MILP path's
	// per-slot capacity binds when a plan produces ahead for two slots.
	// README.md records why tighter regimes are not used.
	minDemand  = 0.3
	maxDemand  = 0.7
	capacityGB = 1.2
	// refCutoff bounds how long a reference phase waits for requests still
	// queued at its end; they are sent and timed like any other.
	refCutoff = 2 * time.Second
)

// cohort is one shared market state: its tenants see the same prices,
// base distribution and bid, so their srrp trees share a cache entry.
type cohort struct {
	base    stats.Discrete
	prices  []float64   // hourly, from the end of the history window
	bid     float64     // a history quantile between 0.6 and 0.9
	srrpDem [][]float64 // per episode: the cohort-shared srrp demand
}

// tenantSim is one synthetic tenant's rolling state. Only its connection's
// goroutine touches it.
type tenantSim struct {
	id, cohort int
	episode    int
	slot       int // -1: the episode's srrp request is next
	first      int // the slot the episode's steps start at, after its srrp
	inv        float64
	demand     []float64
}

// world is a serve workload's generated input.
type world struct {
	shape   serveShape
	seed    int64
	cohorts []*cohort
	tenants []*tenantSim
}

func buildWorld(sh serveShape, seed int64) (*world, error) {
	w := &world{shape: sh, seed: seed}
	rng := rand.New(rand.NewSource(seed))
	for c := 0; c < sh.Cohorts; c++ {
		gen, err := market.NewGenerator(class, seed*1000+int64(c))
		if err != nil {
			return nil, err
		}
		days := histDays + (episodes*sh.Episode+sh.Stages)/24 + 2
		tr := gen.Trace(days)
		hist, err := tr.Hourly(0, histDays*24)
		if err != nil {
			return nil, err
		}
		prices, err := tr.Hourly(float64(histDays*24), episodes*sh.Episode+sh.Stages+1)
		if err != nil {
			return nil, err
		}
		co := &cohort{
			base:   quantileBase(hist, baseValues),
			prices: prices,
			bid:    nearestRank(hist, 0.6+0.3*rng.Float64()),
		}
		for e := 0; e < episodes; e++ {
			co.srrpDem = append(co.srrpDem, demandSeries(rng, sh.Stages+1))
		}
		w.cohorts = append(w.cohorts, co)
	}
	for t := 0; t < sh.Tenants; t++ {
		// Tenants join at staggered slots of their first episode, so at any
		// moment the request mix spans every slot of an episode (late slots
		// plan over truncated, cheaper trees) instead of moving in lockstep.
		w.tenants = append(w.tenants, &tenantSim{id: t, cohort: t % sh.Cohorts, slot: -1, first: t % sh.Episode})
	}
	for _, tn := range w.tenants {
		tn.demand = w.tenantDemand(tn.id, 0)
	}
	return w, nil
}

// quantileBase summarises a price history into k equally likely values,
// its quantiles at (i+½)/k (equal quantiles merge). Every cohort's base
// then has the same size, so tree shapes, and the work per request, do not
// depend on how finely one seed's market happens to be quantised.
func quantileBase(hist []float64, k int) stats.Discrete {
	qs := make([]float64, k)
	for i := range qs {
		qs[i] = nearestRank(hist, (float64(i)+0.5)/float64(k))
	}
	return stats.NewDiscreteFromSamples(qs, 0)
}

func demandSeries(rng *rand.Rand, n int) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = math.Round(100*(minDemand+(maxDemand-minDemand)*rng.Float64())) / 100
	}
	return d
}

// tenantDemand is tenant t's demand in episode e, a pure function of the
// seed so that it does not depend on how far other tenants got.
func (w *world) tenantDemand(t, e int) []float64 {
	rng := rand.New(rand.NewSource(w.seed*7919 + int64(t)*104729 + int64(e)))
	return demandSeries(rng, w.shape.Episode)
}

// connOf maps a tenant onto a connection; a cohort's tenants spread over
// both connections so cohort-shared requests meet in the daemon.
func (w *world) connOf(t int) int { return (t / w.shape.Cohorts) % w.shape.Conns }

// nextRequest builds tenant tn's next request from its state.
func (w *world) nextRequest(tn *tenantSim) *serve.PlanRequest {
	sh := w.shape
	co := w.cohorts[tn.cohort]
	e := tn.episode % episodes
	off := e * sh.Episode
	req := &serve.PlanRequest{
		Tenant:     fmt.Sprintf("t%03d-e%d", tn.id, tn.episode),
		Class:      string(class),
		Bid:        co.bid,
		Stages:     sh.Stages,
		MaxBranch:  sh.MaxBranch,
		BaseValues: co.base.Values,
		BaseProbs:  co.base.Probs,
	}
	if tn.slot < 0 {
		req.Model = "srrp"
		req.RootPrice = co.prices[off]
		req.Demand = co.srrpDem[e]
	} else {
		req.Model = "step"
		req.RootPrice = co.prices[off+tn.slot]
		req.Demand = tn.demand
		req.Slot = tn.slot
		req.Inventory = tn.inv
		req.Replan = sh.Stride
	}
	if sh.Capacitated {
		req.Capacity = constSeries(len(req.Demand), capacityGB)
		req.ConsumptionRate = 1
	}
	return req
}

func constSeries(n int, v float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = v
	}
	return xs
}

// srrpAnswer is one srrp response, kept for the reference check.
type srrpAnswer struct {
	req  *serve.PlanRequest
	resp serve.PlanResponse
}

// exchange is one request/response pair kept for the codec replay.
type exchange struct {
	req  *serve.PlanRequest
	resp []byte
}

// daemon is one running rentpland under test with its clients.
type daemon struct {
	srv     *serve.Server
	ts      *httptest.Server
	clients []*http.Client

	mu        sync.Mutex
	srrp      []srrpAnswer
	exchanges []exchange
	bad       []string
}

func startDaemon(sh serveShape) *daemon {
	d := &daemon{srv: serve.New(serve.Config{Workers: sh.Workers})}
	d.ts = httptest.NewServer(d.srv)
	for c := 0; c < sh.Conns; c++ {
		d.clients = append(d.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}
	return d
}

func (d *daemon) close() {
	for _, c := range d.clients {
		c.CloseIdleConnections()
	}
	d.ts.Close()
}

// post sends one plan request over connection conn.
func (d *daemon) post(conn int, req *serve.PlanRequest) (int, []byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, nil, err
	}
	resp, err := d.clients[conn].Post(d.ts.URL+"/v1/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// local reads one of the daemon's own endpoints in-process, so the
// benchmark's observation takes no client connection.
func (d *daemon) local(path string) []byte {
	rec := httptest.NewRecorder()
	d.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Body.Bytes()
}

func (d *daemon) complain(format string, args ...interface{}) {
	d.mu.Lock()
	if len(d.bad) < 20 {
		d.bad = append(d.bad, fmt.Sprintf(format, args...))
	}
	d.mu.Unlock()
}

// send runs tenant tn's next request and advances its state from the
// response. It reports whether the request succeeded and passed the checks
// that can be made at once: HTTP 200, a full-rung answer, and for a step,
// a generation that covers the slot's demand net of inventory.
func (w *world) send(d *daemon, conn int, tn *tenantSim, keep bool, tim *[3]time.Time) bool {
	req := w.nextRequest(tn)
	t0 := time.Now()
	code, body, err := d.post(conn, req)
	t1 := time.Now()
	var resp serve.PlanResponse
	if err == nil && code == http.StatusOK {
		err = json.Unmarshal(body, &resp)
	}
	if tim != nil {
		*tim = [3]time.Time{t0, t1, time.Now()}
	}
	switch {
	case err != nil:
		d.complain("%s %s: %v", req.Model, req.Tenant, err)
		return false
	case code != http.StatusOK:
		d.complain("%s %s: HTTP %d %s", req.Model, req.Tenant, code, strings.TrimSpace(string(body)))
		return false
	case resp.Degraded || resp.Rung != "full":
		d.complain("%s %s: degraded rung %q", req.Model, req.Tenant, resp.Rung)
		return false
	case resp.Generate == nil || resp.Rent == nil:
		d.complain("%s %s: no here-and-now decision", req.Model, req.Tenant)
		return false
	}
	if keep {
		d.mu.Lock()
		d.exchanges = append(d.exchanges, exchange{req: req, resp: body})
		d.mu.Unlock()
	}
	if req.Model == "srrp" {
		d.mu.Lock()
		// Only the cost and the here-and-now decision are checked; the
		// per-vertex plan is dropped so the benchmark's own memory stays
		// small next to the daemon's.
		resp.Alpha, resp.Beta, resp.Chi = nil, nil, nil
		d.srrp = append(d.srrp, srrpAnswer{req: req, resp: resp})
		d.mu.Unlock()
		tn.slot = tn.first
		return true
	}
	gen, need := *resp.Generate, req.Demand[req.Slot]-req.Inventory
	if gen < need-1e-6*math.Max(1, need) {
		d.complain("step %s slot %d: generates %v for net demand %v", req.Tenant, req.Slot, gen, need)
		return false
	}
	tn.inv = math.Max(0, req.Inventory+gen-req.Demand[req.Slot])
	tn.slot++
	if tn.slot == w.shape.Episode {
		tn.episode++
		tn.slot, tn.first, tn.inv = -1, 0, 0
		tn.demand = w.tenantDemand(tn.id, tn.episode)
	}
	return true
}

// phase drives one open-loop phase at rate for dur and returns its
// samples; requests still queued cutoff after the last due time are
// skipped. With a timing slice, each request's send, receipt and decode
// times are stored at its index for the trace.
func (w *world) phase(d *daemon, rng *rand.Rand, rate float64, dur, cutoff time.Duration, keep bool, timing *[][3]time.Time) []sample {
	sched := poissonSchedule(rng, rate, dur)
	n := len(w.tenants)
	var tim [][3]time.Time
	if timing != nil {
		tim = make([][3]time.Time, len(sched))
		*timing = tim
	}
	connOf := func(i int) int { return w.connOf(i % n) }
	return openLoop(sched, w.shape.Conns, connOf, cutoff, func(conn, i int) bool {
		var t *[3]time.Time
		if tim != nil {
			t = &tim[i]
		}
		return w.send(d, conn, w.tenants[i%n], keep, t)
	})
}

// warmUp sends one srrp per cohort and a few steps on tenants outside the
// measured population, so connections, caches and the runtime are warm.
func (w *world) warmUp(d *daemon) error {
	for c := range w.cohorts {
		tn := &tenantSim{id: 1000 + c, cohort: c, slot: -1, demand: w.tenantDemand(1000+c, 0)}
		for k := 0; k < 3; k++ {
			req := w.nextRequest(tn)
			req.Tenant = "warm-" + req.Tenant
			code, body, err := d.post(c%w.shape.Conns, req)
			if err != nil || code != http.StatusOK {
				return fmt.Errorf("warm-up %s: HTTP %d %v %s", req.Model, code, err, body)
			}
			var resp serve.PlanResponse
			if err := json.Unmarshal(body, &resp); err != nil || resp.Generate == nil {
				return fmt.Errorf("warm-up %s: bad response %s", req.Model, body)
			}
			if req.Model == "step" {
				tn.inv = math.Max(0, tn.inv+*resp.Generate-req.Demand[req.Slot])
			}
			tn.slot++
		}
	}
	return nil
}

// refReport is the outcome of the reference check.
type refReport struct {
	checked, bad int
	why          []string
	solves       int     // distinct requests re-solved
	buildMS      float64 // mean over requests of the least wall time of scenario.Build
	solveMS      float64 // the same for core.SolveSRRPCtx
}

// reference re-solves every distinct srrp request in-process, outside any
// timed window, and compares each answer the daemon gave with it.
func reference(answers []srrpAnswer, capacitated bool) (refReport, error) {
	var rep refReport
	refs := map[string]*core.StochasticPlan{}
	var builds, solves []float64
	for _, a := range answers {
		anon := *a.req
		anon.Tenant = ""
		key, _ := json.Marshal(anon)
		plan, ok := refs[string(key)]
		if !ok {
			// Each request is replayed replays times and the least time of
			// each kind is kept: the work is the same every time, so the
			// minimum strips what other threads and the host added.
			b, sv := math.Inf(1), math.Inf(1)
			for i := 0; i < replays; i++ {
				p, bms, sms, err := replay(a.req)
				if err != nil {
					return rep, err
				}
				plan = p
				b, sv = math.Min(b, bms), math.Min(sv, sms)
			}
			builds, solves = append(builds, b), append(solves, sv)
			refs[string(key)] = plan
		}
		rep.checked++
		if msg := compareSRRP(a.resp, plan, capacitated); msg != "" {
			rep.bad++
			if len(rep.why) < 10 {
				rep.why = append(rep.why, a.req.Tenant+": "+msg)
			}
		}
	}
	rep.solves = len(refs)
	rep.buildMS, rep.solveMS = mean(builds), mean(solves)
	return rep, nil
}

// replays is how many times the reference check solves each distinct
// srrp request.
const replays = 3

// replayEpisodes is how many episodes of every cohort's srrp request the
// timed replay covers.
const replayEpisodes = 8

// replaySet is the fixed set of srrp requests whose replay op2_cpu_ms
// times: every cohort's request for the first replayEpisodes episodes. It
// depends on the seed alone, not on how far a run's tenants got.
func (w *world) replaySet() []*serve.PlanRequest {
	var out []*serve.PlanRequest
	for e := 0; e < replayEpisodes; e++ {
		for c := range w.cohorts {
			out = append(out, w.nextRequest(&tenantSim{id: c, cohort: c, slot: -1, episode: e}))
		}
	}
	return out
}

// replayCPU replays every request of qs in-process, each one segment (one
// kernel run after it). It runs on one thread (GOMAXPROCS 1, so
// branch-and-bound takes its serial, deterministic path) and after a
// collection, so the work is the same on every run of a seed.
func replayCPU(qs []*serve.PlanRequest) (*segments, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	seg := newSegments(1)
	for _, q := range qs {
		if _, _, _, err := replay(q); err != nil {
			return nil, err
		}
		seg.cut()
	}
	return seg, nil
}

// streamRequests is the length of the serial request stream.
const streamRequests = 3000

// serialStream sends the next streamRequests requests of the tenants in
// turn, one at a time over their connections, each one segment (one kernel
// run after it). It runs on one thread (GOMAXPROCS 1: no parallel search,
// no scheduler spinning) and after a collection; set-up is deterministic
// and so is every answer on one thread, so the stream is the same on every
// run of a seed. Every answer is checked like the open-loop phases'
// answers.
func (w *world) serialStream(d *daemon, res *result) *segments {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	seg := newSegments(1)
	for i := 0; i < streamRequests; i++ {
		t := i % len(w.tenants)
		res.op(w.send(d, w.connOf(t), w.tenants[t], false, nil))
		seg.cut()
	}
	return seg
}

// showPerItem logs a serve phase's per-item CPU figures under name: the
// gated one, the untrimmed one, and the raw means of the items and of
// their kernel runs.
func showPerItem(res *result, name string, seg *segments) {
	n := len(seg.pairs)
	res.show(name, seg.perItemMS(trimTop), "ms", n)
	res.show(name+"_untrimmed", seg.perItemMS(0), "ms", n)
	res.show(name+"_raw", seg.rawMS()/float64(n), "ms", n)
	res.show(name+"_kernel", seg.kernelMS(), "ms", n)
}

// replay builds the request's scenario tree and solves it in-process, as
// the daemon would without its cache, and returns the plan with the wall
// milliseconds of the build and of the solve.
func replay(q *serve.PlanRequest) (*core.StochasticPlan, float64, float64, error) {
	par, base := requestParams(q)
	lambda, err := par.OnDemandRate()
	if err != nil {
		return nil, 0, 0, err
	}
	t0 := time.Now()
	tree, err := scenario.Build(base, constSeries(q.Stages, q.Bid), lambda, scenario.BuildConfig{
		Stages: q.Stages, MaxBranch: q.MaxBranch, RootPrice: q.RootPrice,
	})
	if err != nil {
		return nil, 0, 0, err
	}
	t1 := time.Now()
	plan, err := core.SolveSRRPCtx(context.Background(), par, tree, q.Demand)
	if err != nil {
		return nil, 0, 0, err
	}
	return plan, ms(t1.Sub(t0)), ms(time.Since(t1)), nil
}

// compareSRRP checks a daemon answer against the reference plan. The DP
// path is deterministic, so its cost and here-and-now decision must match;
// on the MILP path several optimal plans may tie, so only the optimal cost
// must match.
func compareSRRP(got serve.PlanResponse, want *core.StochasticPlan, capacitated bool) string {
	tol := 1e-9
	if capacitated {
		tol = 1e-6
	}
	if math.Abs(got.Cost-want.ExpCost) > tol*math.Max(1, math.Abs(want.ExpCost)) {
		return fmt.Sprintf("cost %v, reference %v", got.Cost, want.ExpCost)
	}
	if capacitated {
		return ""
	}
	if *got.Rent != want.RootRent || math.Abs(*got.Generate-want.RootAlpha) > 1e-9*math.Max(1, want.RootAlpha) {
		return fmt.Sprintf("root decision (%v, %v), reference (%v, %v)", *got.Rent, *got.Generate, want.RootRent, want.RootAlpha)
	}
	return ""
}

// requestParams mirrors how the daemon maps a request onto the planner.
func requestParams(q *serve.PlanRequest) (core.Params, stats.Discrete) {
	par := core.DefaultParams(market.VMClass(q.Class))
	if q.Phi != nil {
		par.Phi = *q.Phi
	}
	par.Epsilon = q.Epsilon
	if q.Capacity != nil {
		par.Capacity = append([]float64(nil), q.Capacity...)
		par.ConsumptionRate = q.ConsumptionRate
	}
	base := stats.Discrete{Values: append([]float64(nil), q.BaseValues...), Probs: append([]float64(nil), q.BaseProbs...)}
	return par, base
}

// codecMicros replays the JSON encode and decode of the kept request and
// response bodies and returns the mean time per exchange.
func codecMicros(xs []exchange) float64 {
	if len(xs) == 0 {
		return 0
	}
	start := time.Now()
	for _, x := range xs {
		b, _ := json.Marshal(x.req)
		var q serve.PlanRequest
		_ = json.Unmarshal(b, &q)
		var r serve.PlanResponse
		_ = json.Unmarshal(x.resp, &r)
		_, _ = json.Marshal(&r)
	}
	return float64(time.Since(start).Microseconds()) / float64(len(xs))
}

// promSnapshot parses the daemon's Prometheus exposition into series
// values; a bare metric name sums every label set of that metric.
func promSnapshot(body []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		series := line[:i]
		out[series] += v
		if j := strings.IndexByte(series, '{'); j >= 0 {
			out[series[:j]] += v
		}
	}
	return out
}

// labelled sums a metric's series whose labels contain sel.
func labelled(snap map[string]float64, name, sel string) float64 {
	v := 0.0
	for k, x := range snap {
		if strings.HasPrefix(k, name+"{") && strings.Contains(k, sel) {
			v += x
		}
	}
	return v
}

// pollQueue samples the daemon's queue depth from /v1/healthz every 20ms
// until stop is closed, then returns the mean depth.
func pollQueue(d *daemon, stop <-chan struct{}) float64 {
	var depths []float64
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return mean(depths)
		case <-tick.C:
			var h struct {
				QueueDepth float64 `json:"queueDepth"`
			}
			if json.Unmarshal(d.local("/v1/healthz"), &h) == nil {
				depths = append(depths, h.QueueDepth)
			}
		}
	}
}

// runServe runs a serve workload.
func runServe(sh serveShape, seed int64, seconds float64, traced bool, res *result) error {
	setups := sh.Setups
	if traced {
		setups = 1
	}
	var w *world
	d, setup, err := medianSetup(setups, (*daemon).close, func() (*daemon, error) {
		var err error
		if w, err = buildWorld(sh, seed); err != nil {
			return nil, err
		}
		d := startDaemon(sh)
		if err := w.warmUp(d); err != nil {
			d.close()
			return nil, err
		}
		return d, nil
	})
	if err != nil {
		return err
	}
	defer d.close()
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	total := time.Duration(seconds * float64(time.Second))
	limit := time.Duration(sh.LimitMS * float64(time.Millisecond))

	if traced {
		return serveTraced(w, d, rng, total/2, res)
	}
	setup.record(res)

	// Planner CPU per srrp request replayed in-process on the set-up's
	// small heap, then CPU per request through the daemon, both before any
	// concurrent load.
	qs := w.replaySet()
	rp, err := replayCPU(qs)
	if err != nil {
		return err
	}
	res.set("op2_cpu_ms", rp.perItemMS(trimTop), "ms", len(qs))
	showPerItem(res, "srrp_replay_cpu_ms", rp)
	st := w.serialStream(d, res)
	res.set("op_cpu_ms", st.perItemMS(trimTop), "ms", streamRequests)
	showPerItem(res, "stream_cpu_ms_per_req", st)

	// Latency at the fixed reference rate.
	refDur := total / 4
	cpu0 := cpuSeconds()
	ref := w.phase(d, rng, sh.RefRate, refDur, refCutoff, false, nil)
	res.show("ref_cpu_ms_per_req", 1000*(cpuSeconds()-cpu0)/float64(len(ref)), "ms", len(ref))
	lat := latenciesMS(ref)
	countOps(res, ref)
	p50, tail := median(lat), nearestRank(lat, sh.TailQ)
	tailName := fmt.Sprintf("p%02.0f_ms", 100*sh.TailQ)
	res.show("p50_ms", p50, "ms", len(lat))
	res.show(tailName, tail, "ms", beyond(lat, sh.TailQ))
	// The same percentiles as medians over one-second windows, so one
	// stall of the machine moves one window, not the figure.
	wins := int(refDur / time.Second)
	res.show("window_p50_ms", windowed(ref, refDur, wins, 0.5), "ms", wins)
	res.show("window_"+tailName, windowed(ref, refDur, wins, sh.TailQ), "ms", wins)
	res.show("reference_rps", sh.RefRate, "1/s", len(ref))
	late := lateP99MS(ref)
	res.show("late_p99_ms", late, "ms", len(ref))
	if late > sh.LimitMS {
		// The host, not the program, held the generator back: the wall-clock
		// figures of this run do not count.
		res.named = append(res.named, fmt.Sprintf("generator ran %.1fms late at p99 (limit %gms): the latencies and goodput of this run do not count", late, sh.LimitMS))
	}

	// Goodput: bisect the fixed ladder. A rung that fails is run once more
	// and fails only if it fails again, so one stall of the machine does not
	// send the search down. Every run of a rung offers the same number of
	// requests, so each verdict rests on the same sample size and a run's
	// total work does not depend on which rates the search visits.
	var runs []rungOutcome
	sent := 0
	cpu1 := cpuSeconds()
	run := func(k int) rungOutcome {
		rate := ladderRate(sh.LadderLo, sh.LadderStep, k)
		rungDur := time.Duration(float64(sh.RungReqs) / rate * float64(time.Second))
		ss := w.phase(d, rng, rate, rungDur, limit, false, nil)
		sent += countOps(res, ss)
		r := judgeRung(rate, ss, rungDur, limit, sh.Share, sh.Conns)
		runs = append(runs, r)
		return r
	}
	best, _ := climbLadder(sh.LadderRungs, func(k int) rungOutcome {
		if r := run(k); r.pass {
			return r
		}
		return run(k)
	})
	res.show("ladder_cpu_ms_per_req", 1000*(cpuSeconds()-cpu1)/float64(sent), "ms", sent)
	for _, r := range runs {
		res.named = append(res.named, fmt.Sprintf("rung %8.2f rps: %5d due, %.4f within %gms, growing=%v, late p99 %.2fms, pass=%v",
			r.rate, r.requests, r.share, sh.LimitMS, r.growing, r.lateP99, r.pass))
	}
	res.show("goodput_rps", best.goodRPS, "1/s", best.requests)
	res.show("goodput_rung_rps", best.rate, "1/s", len(runs))

	ref2, err := reference(d.srrp, sh.Capacitated)
	if err != nil {
		return err
	}
	res.check(ref2.bad == 0, "%d of %d srrp answers differ from the reference: %v", ref2.bad, ref2.checked, ref2.why)
	res.show("srrp_checked", float64(ref2.checked), "count", ref2.checked)
	res.broken = append(res.broken, d.bad...)
	return nil
}

// serveTraced is the traced run: the reference rate once untraced and once
// traced, with a CPU profile and the replays. The daemon's counters are
// taken over both halves, so the rarer srrp requests are counted too.
func serveTraced(w *world, d *daemon, rng *rand.Rand, half time.Duration, res *result) error {
	sh := w.shape
	before := promSnapshot(d.local("/v1/metrics"))
	plain := w.phase(d, rng, sh.RefRate, half, refCutoff, false, nil)
	countOps(res, plain)

	tr := newTracer()
	rt0 := snapRuntime()
	prof, err := startProfile()
	if err != nil {
		return err
	}
	stop := make(chan struct{})
	depth := make(chan float64, 1)
	go func() { depth <- pollQueue(d, stop) }()
	var tim [][3]time.Time
	traced := w.phase(d, rng, sh.RefRate, half, refCutoff, true, &tim)
	close(stop)
	queueMean := <-depth
	raw := prof.stop()
	rt1 := snapRuntime()
	after := promSnapshot(d.local("/v1/metrics"))
	countOps(res, traced)
	// Spans of one request share its schedule index as request id; the
	// phase's clock origin is recovered from the first send.
	origin := phaseOrigin(traced, tim)
	for i, s := range traced {
		if s.skipped {
			continue
		}
		req := int64(i)
		root := tr.record("loadgen.request", 0, req, origin.Add(s.due), origin.Add(s.done))
		tr.record("loadgen.queue", root, req, origin.Add(s.due), origin.Add(s.sent))
		tr.record("http.roundtrip", root, req, tim[i][0], tim[i][1])
		tr.record("client.decode", root, req, tim[i][1], tim[i][2])
	}

	delta := func(name string) float64 { return after[name] - before[name] }
	hits, misses := delta("rentpland_tree_cache_hits_total"), delta("rentpland_tree_cache_misses_total")
	reuse := delta("rentpland_plan_reuse_total")
	steps := labelled(after, "rentpland_plans_total", `model="step"`) - labelled(before, "rentpland_plans_total", `model="step"`)
	plans := delta("rentpland_plans_total")
	capSolves := 0.0
	if sh.Capacitated {
		capSolves = plans - reuse
	}
	res.set("serve.cache_hit_ratio", ratio(hits, hits+misses), "ratio", int(hits+misses))
	res.set("serve.cache_lookups", hits+misses, "count", 1)
	res.set("serve.plan_reuse_ratio", ratio(reuse, steps), "ratio", int(steps))
	res.set("serve.step_requests", steps, "count", 1)
	res.set("serve.warm_root_ratio", ratio(delta("rentpland_warm_root_total"), capSolves), "ratio", int(capSolves))
	res.set("serve.capacitated_solves", capSolves, "count", 1)
	res.set("scenario.builds", misses+steps-reuse, "count", 1)
	res.set("serve.handler_ms", 1000*ratio(delta("rentpland_request_seconds_sum"), delta("rentpland_request_seconds_count")), "ms", int(delta("rentpland_request_seconds_count")))
	res.set("serve.queue_depth_mean", queueMean, "count", 1)
	res.set("serve.rejected", delta("rentpland_queue_rejections_total"), "count", 1)
	res.set("serve.degraded", delta("rentpland_degradations_total"), "count", 1)
	res.set("mip.nodes", delta("rentpland_mip_nodes_total"), "count", 1)
	res.set("mip.warm_nodes", delta("rentpland_mip_warm_nodes_total"), "count", 1)
	res.set("mip.cold_nodes", delta("rentpland_mip_cold_nodes_total"), "count", 1)
	res.set("lp.simplex_iters", delta("rentpland_simplex_iterations_total"), "count", 1)
	res.set("loadgen.late_p99_ms", lateP99MS(traced), "ms", len(traced))
	res.set("loadgen.achieved_rps", float64(countOK(traced))/half.Seconds(), "1/s", len(traced))
	addRuntimeDelta(res, rt0, rt1)
	if err := addProfile(res, raw); err != nil {
		return err
	}

	p50plain, p50traced := median(latenciesMS(plain)), median(latenciesMS(traced))
	res.set("trace.overhead_pct", 100*(p50traced-p50plain)/p50plain, "%", len(traced))
	res.show("p50_ms_untraced", p50plain, "ms", len(plain))
	res.show("p50_ms_traced", p50traced, "ms", len(traced))

	ref2, err := reference(d.srrp, sh.Capacitated)
	if err != nil {
		return err
	}
	res.check(ref2.bad == 0, "%d of %d srrp answers differ from the reference: %v", ref2.bad, ref2.checked, ref2.why)
	res.set("scenario.build_ms", ref2.buildMS, "ms", ref2.solves)
	res.set("core.srrp_solve_ms", ref2.solveMS, "ms", ref2.solves)
	res.set("serve.codec_us", codecMicros(d.exchanges), "us", len(d.exchanges))
	res.broken = append(res.broken, d.bad...)
	return writeTrace(buildDir+"/trace", fmt.Sprintf("%s-seed%d", sh.Name, w.seed), tr, raw)
}

// phaseOrigin is the wall time a phase's sample offsets count from.
func phaseOrigin(ss []sample, tim [][3]time.Time) time.Time {
	for i, s := range ss {
		if !s.skipped {
			return tim[i][0].Add(-s.sent)
		}
	}
	return time.Now()
}

// countOps counts every request that was sent as one attempted operation,
// failed unless it passed its checks, and returns how many were sent.
func countOps(res *result, ss []sample) int {
	sent := 0
	for _, s := range ss {
		if !s.skipped {
			res.op(s.ok)
			sent++
		}
	}
	return sent
}

func countOK(ss []sample) int {
	n := 0
	for _, s := range ss {
		if s.ok {
			n++
		}
	}
	return n
}

// addProfile records each module's share of the CPU samples.
func addProfile(res *result, raw []byte) error {
	shares, n, err := leafModules(raw)
	if err != nil {
		return err
	}
	for _, m := range []string{"arima", "lotsize", "scenario", "core", "mip", "lp", "benders", "serve", "fleet", "market", "runtime", "stdlib"} {
		res.set(m+".cpu_pct", shares[m], "%", int(n))
	}
	res.set("trace.cpu_samples", float64(n), "count", 1)
	return nil
}
