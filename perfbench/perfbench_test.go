package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"rentplan/internal/serve"
)

func TestNearestRank(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {0.95, 10}, {0.99, 10}, {0.01, 1}, {0, 1}, {1, 10}} {
		if got := nearestRank(xs, c.q); got != c.want {
			t.Errorf("nearestRank(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(nearestRank(nil, 0.5)) {
		t.Error("an empty sample must give NaN, not a fast percentile")
	}
	if xs[0] != 10 {
		t.Error("nearestRank reordered its input")
	}
	// Sample counts behind a percentile: with 10 samples only one lies
	// beyond the 90th percentile, and none beyond the 99th.
	if got := beyond(xs, 0.9); got != 1 {
		t.Errorf("beyond(0.9) = %d, want 1", got)
	}
	if got := beyond(xs, 0.99); got != 0 {
		t.Errorf("beyond(0.99) = %d, want 0", got)
	}
}

// A stalled request must raise the measured latency of every request
// queued behind it on its connection, because latency runs from the due
// time, while requests on the other connection stay fast.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const stall = 80 * time.Millisecond
	sched := []time.Duration{0, 5 * time.Millisecond, 10 * time.Millisecond, 15 * time.Millisecond, 20 * time.Millisecond}
	connOf := func(i int) int {
		if i == 4 {
			return 1
		}
		return 0
	}
	samples := openLoop(sched, 2, connOf, time.Second, func(conn, i int) bool {
		if i == 0 {
			time.Sleep(stall)
		}
		return true
	})
	for i := 1; i <= 3; i++ {
		s := samples[i]
		if !s.ok || s.skipped {
			t.Fatalf("request %d not completed: %+v", i, s)
		}
		if min := stall - s.due; s.latency() < min {
			t.Errorf("request %d queued behind the stall: latency %v < %v", i, s.latency(), min)
		}
		if s.sent < stall {
			t.Errorf("request %d sent at %v, before the stalled request finished", i, s.sent)
		}
	}
	if l := samples[4].latency(); l > stall/2 {
		t.Errorf("request on the idle connection took %v", l)
	}
	// The generator itself stayed on schedule: the stall is not its lateness.
	if late := lateP99MS(samples); late > 20 {
		t.Errorf("generator lateness %vms", late)
	}
}

func TestOpenLoopSkipsPastCutoff(t *testing.T) {
	sched := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	samples := openLoop(sched, 1, func(int) int { return 0 }, 10*time.Millisecond, func(conn, i int) bool {
		time.Sleep(50 * time.Millisecond)
		return true
	})
	if !samples[0].ok || !samples[1].skipped || !samples[2].skipped {
		t.Fatalf("want the first request served and the rest skipped: %+v", samples)
	}
}

// synthetic builds n samples due evenly over dur, each completing after
// the latency lat(i).
func synthetic(n int, dur time.Duration, lat func(i int) time.Duration) []sample {
	ss := make([]sample, n)
	for i := range ss {
		due := time.Duration(i) * dur / time.Duration(n)
		ss[i] = sample{due: due, sent: due, done: due + lat(i), ok: true}
	}
	return ss
}

func TestGrowingBacklog(t *testing.T) {
	dur := time.Second
	steady := synthetic(200, dur, func(int) time.Duration { return 3 * time.Millisecond })
	if growingBacklog(steady, dur, 2) {
		t.Error("a steady 3ms latency was taken for a growing backlog")
	}
	// Each request waits 8ms longer than the one before: the server
	// completes fewer than arrive, so the backlog climbs all phase long.
	overloaded := synthetic(200, dur, func(i int) time.Duration { return time.Duration(i) * 8 * time.Millisecond })
	if !growingBacklog(overloaded, dur, 2) {
		t.Error("a linearly growing queue was not detected")
	}
	r := judgeRung(200, overloaded, dur, 25*time.Millisecond, 0.5, 2)
	if r.pass || !r.growing {
		t.Errorf("overloaded rung passed: %+v", r)
	}
	r = judgeRung(200, steady, dur, 25*time.Millisecond, 0.99, 2)
	if !r.pass || r.goodRPS != 200 {
		t.Errorf("steady rung failed: %+v", r)
	}
}

func TestJudgeRungCountsFailuresAsMissingTheLimit(t *testing.T) {
	dur := time.Second
	ss := synthetic(100, dur, func(int) time.Duration { return time.Millisecond })
	// Two failures in each 250ms window: fast, but failed their checks.
	for i := 0; i < len(ss); i += 25 {
		ss[i].ok, ss[i+1].ok = false, false
	}
	if r := judgeRung(100, ss, dur, 25*time.Millisecond, 0.99, 2); r.pass || r.share != 0.92 {
		t.Errorf("two failed requests in every 25 must fail a 99%% rung: %+v", r)
	}
	// A stall that delays one window's requests past the limit is not the
	// sustained rate's fault: the median window still passes.
	stalled := synthetic(100, dur, func(i int) time.Duration {
		if i < 25 {
			return 60 * time.Millisecond
		}
		return time.Millisecond
	})
	if r := judgeRung(100, stalled, dur, 25*time.Millisecond, 0.99, 2); !r.pass {
		t.Errorf("one stalled window failed the rung: %+v", r)
	}
}

func TestClimbLadderFindsHighestPassingRung(t *testing.T) {
	for _, top := range []int{-1, 0, 13, 31} {
		probes := 0
		best, tried := climbLadder(32, func(k int) rungOutcome {
			probes++
			return rungOutcome{rate: float64(k + 1), pass: k <= top}
		})
		want := float64(top + 1)
		if best.rate != want {
			t.Errorf("top %d: found rate %v, want %v", top, best.rate, want)
		}
		if probes != len(tried) || probes > 6 {
			t.Errorf("top %d: %d probes", top, probes)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "a", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "b", Start: 80, End: 120}, // overruns the parent
		{ID: 5, Parent: 3, Name: "c", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"root": 40, "a": 20 + 30 - 10, "b": 40, "c": 10}
	for k, v := range want {
		if self[k] != v {
			t.Errorf("self[%s] = %d, want %d", k, self[k], v)
		}
	}
}

func TestResultCountsCheckMismatchAsFailure(t *testing.T) {
	r := newResult()
	r.op(true)
	r.check(true, "fine")
	r.check(false, "digest %s, recorded %s", "aaa", "bbb")
	if r.attempted != 3 || r.failed != 1 || len(r.broken) != 1 {
		t.Fatalf("attempted %d failed %d broken %v", r.attempted, r.failed, r.broken)
	}
}

func TestReportDigestMismatchFails(t *testing.T) {
	report := []byte("shape check passed\n== Extension: fleet market equilibrium\n")
	saved := reproDigests
	defer func() { reproDigests = saved }()
	reproDigests = map[int64]string{1: reportDigest(report), 2: "0000000000000000"}

	ok := newResult()
	checkReport(ok, 1, report)
	if ok.failed != 0 {
		t.Fatalf("matching digest failed: %v", ok.broken)
	}
	bad := newResult()
	checkReport(bad, 2, report)
	if bad.failed != 1 {
		t.Fatalf("digest mismatch counted %d failures", bad.failed)
	}
	shape := newResult()
	checkReport(shape, 3, []byte("SHAPE CHECK FAILED: x\n"))
	if shape.failed != 2 {
		t.Fatalf("failed shape check and truncated report counted %d failures", shape.failed)
	}
}

// The reference check re-solves an srrp request in-process; an answer whose
// cost or root decision differs from the reference is a failure.
func TestReferenceFlagsWrongAnswers(t *testing.T) {
	req := &serve.PlanRequest{
		Tenant: "t", Model: "srrp", Class: "c1.medium", Bid: 0.065, Stages: 2, MaxBranch: 3,
		RootPrice: 0.06, BaseValues: []float64{0.05, 0.06, 0.07}, BaseProbs: []float64{0.3, 0.4, 0.3},
		Demand: []float64{0.3, 0.4, 0.5},
	}
	right := solveOnce(t, req)
	rep, err := reference([]srrpAnswer{{req: req, resp: right}}, false)
	if err != nil || rep.checked != 1 || rep.bad != 0 || rep.solves != 1 {
		t.Fatalf("correct answer: %+v, err %v", rep, err)
	}
	wrongCost := right
	wrongCost.Cost *= 1.01
	flip := !*right.Rent
	wrongRent := right
	wrongRent.Rent = &flip
	rep, err = reference([]srrpAnswer{{req: req, resp: wrongCost}, {req: req, resp: wrongRent}}, false)
	if err != nil || rep.checked != 2 || rep.bad != 2 || rep.solves != 1 {
		t.Fatalf("wrong answers: %+v, err %v", rep, err)
	}
}

// solveOnce answers req through a real daemon.
func solveOnce(t *testing.T, req *serve.PlanRequest) serve.PlanResponse {
	t.Helper()
	d := startDaemon(serveShape{Workers: 1, Conns: 1})
	defer d.close()
	code, body, err := d.post(0, req)
	if err != nil || code != 200 {
		t.Fatalf("HTTP %d %v %s", code, err, body)
	}
	var resp serve.PlanResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"rentplan/internal/lotsize.SolveTree":            "lotsize",
		"rentplan/internal/optimize.NelderMead":          "arima",
		"rentplan/internal/serve/metrics.(*Counter).Add": "serve",
		"rentplan/internal/lp.(*tableau).pivot":          "lp",
		"runtime.mallocgc":                               "runtime",
		"encoding/json.(*decodeState).object":            "stdlib",
		"main.spin":                                      "perfbench",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

var sink float64

//go:noinline
func spin(d time.Duration) {
	end := time.Now().Add(d)
	x := 0.0 // a local, so the race detector adds no calls to the loop
	for time.Now().Before(end) {
		for i := 0; i < 1_000_000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	sink = x
}

// The profile decoder reads a real CPU profile and attributes a busy loop
// in this package to the benchmark itself.
func TestLeafModulesReadsRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, n, err := leafModules(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n < 5 {
		t.Skipf("only %d samples", n)
	}
	total := 0.0
	for _, v := range shares {
		total += v
	}
	if math.Abs(total-100) > 1e-9 || shares["perfbench"]+shares["runtime"]+shares["stdlib"] < 99 {
		t.Errorf("shares %v over %d samples", shares, n)
	}
	if shares["perfbench"] < 30 {
		t.Errorf("busy loop got %.1f%% of %d samples: %v", shares["perfbench"], n, shares)
	}
}

// BENCHMARK.json and the metric lists the program prints must agree.
func TestBenchmarkJSONMatchesMetricLists(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d/%d metrics, the program %d/%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		if b.EndToEnd[i].Name != m.name || b.EndToEnd[i].Unit != m.unit {
			t.Errorf("end_to_end[%d] = %+v, program has %s %s", i, b.EndToEnd[i], m.name, m.unit)
		}
	}
	for i, m := range perLayer {
		if b.PerLayer[i].Name != m.name || b.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d] = %+v, program has %s %s", i, b.PerLayer[i], m.name, m.unit)
		}
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
}

// The trimmed ratio leaves out the items that cost the most per kernel
// millisecond, and keeps each item paired with its own kernel run.
func TestTrimmedRatioDropsTheCostliestItems(t *testing.T) {
	pairs := []cpuPair{{1, 1}, {2, 1}, {1, 0.5}, {3, 1}, {400, 1}}
	if got := trimmedRatio(pairs, 0); math.Abs(got-407/4.5) > 1e-12 {
		t.Errorf("untrimmed ratio %v, want %v", got, 407/4.5)
	}
	// A fifth of five pairs is one: the 400 ms item goes, 407-400 over 3.5.
	if got := trimmedRatio(pairs, 0.2); math.Abs(got-7/3.5) > 1e-12 {
		t.Errorf("trimmed ratio %v, want %v", got, 7/3.5)
	}
	// Below one whole pair nothing is trimmed.
	if got := trimmedRatio(pairs, 0.01); math.Abs(got-407/4.5) > 1e-12 {
		t.Errorf("1%% of five pairs trimmed something: %v", got)
	}
	if pairs[4].item != 400 {
		t.Error("trimmedRatio reordered its argument")
	}
}

// A long call's segments are each scaled by their own kernel runs.
func TestSegmentsScaleEachSegmentByItsKernels(t *testing.T) {
	s := &segments{pairs: []cpuPair{{item: 100, kernel: calibMS}, {item: 100, kernel: 2 * calibMS}}}
	if got := s.calibratedMS(); math.Abs(got-150) > 1e-9 {
		t.Errorf("calibrated %v ms, want 100 + 100/2", got)
	}
	if got := s.rawMS(); got != 200 {
		t.Errorf("raw %v ms, want 200", got)
	}
	// As items, the same pairs give total over total: 200 over 3 kernels.
	if got := s.perItemMS(0); math.Abs(got-200.0/3) > 1e-9 {
		t.Errorf("per item %v ms, want %v", got, 200.0/3)
	}
}

// The calibration kernel does the same work on every run.
func TestCalibKernelIsDeterministic(t *testing.T) {
	if a, b := calibKernel(), calibKernel(); a != b || math.IsNaN(a) {
		t.Errorf("kernel results %v and %v", a, b)
	}
	if k := kernelCPU(); k <= 0 {
		t.Errorf("kernel CPU %v ms", k)
	}
}
