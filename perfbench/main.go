// Command perfbench is the repository's end-to-end benchmark. It runs one
// seeded workload against the program's public entry points, checks every
// output, and prints its metrics; see README.md for the workloads, the
// metrics and which layer metric should move which end-to-end metric.
//
// Run it from the repository root through the launcher, which builds it:
//
//	bash perfbench/run.sh --workload serve-dp --seed 3 --seconds 25 --trace 0
//
// With --trace 0 the last line of standard output is one JSON object with
// the end-to-end metrics; with --trace 1 it carries the per-layer metrics of
// a separate traced run, whose spans and CPU profile are written under
// .bench_build/trace/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result collects one run's metrics and check outcomes.
type result struct {
	attempted, failed int
	broken            []string // checks that failed, for the log
	metrics           map[string]metric
	samples           map[string]int
	named             []string // the workload's metrics under their own names, for the log
}

func newResult() *result {
	return &result{metrics: map[string]metric{}, samples: map[string]int{}}
}

// set records a metric with the number of samples behind it.
func (r *result) set(name string, v float64, unit string, n int) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = n
}

// show logs a workload metric under the name the workload gives it.
func (r *result) show(name string, v float64, unit string, n int) {
	r.named = append(r.named, fmt.Sprintf("%-22s %14.6g %-6s n=%d", name, v, unit, n))
}

// op counts one attempted operation and whether its check passed.
func (r *result) op(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// check records a failed whole-run check (e.g. a digest mismatch) as one
// failed operation with its reason.
func (r *result) check(ok bool, format string, args ...interface{}) {
	r.op(ok)
	if !ok {
		r.broken = append(r.broken, fmt.Sprintf(format, args...))
	}
}

// endToEnd lists the gated metrics of an untraced run, the same on every
// workload; README.md gives each workload's reading of them. They are
// calibrated CPU times (calib.go), which neither a shared host's steal time
// nor its changing speed moves much. The wall-clock figures (latency
// percentiles, goodput, throughput) and peak memory are printed under their
// own names beside them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_cpu_ms", "ms"},
	{"op2_cpu_ms", "ms"},
}

// perLayer lists the metrics of a traced run. A layer a workload does not
// exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"experiments.fig8_s", "s"},
	{"experiments.fig12a_s", "s"},
	{"experiments.fig12b_s", "s"},
	{"experiments.horizon_s", "s"},
	{"experiments.robustness_s", "s"},
	{"experiments.other_s", "s"},
	{"arima.cpu_pct", "%"},
	{"arima.origins", "count"},
	{"lotsize.cpu_pct", "%"},
	{"scenario.cpu_pct", "%"},
	{"scenario.builds", "count"},
	{"scenario.build_ms", "ms"},
	{"core.cpu_pct", "%"},
	{"core.srrp_solve_ms", "ms"},
	{"core.replans", "count"},
	{"mip.cpu_pct", "%"},
	{"lp.cpu_pct", "%"},
	{"benders.cpu_pct", "%"},
	{"mip.nodes", "count"},
	{"mip.warm_nodes", "count"},
	{"mip.cold_nodes", "count"},
	{"lp.simplex_iters", "count"},
	{"serve.cpu_pct", "%"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.cache_lookups", "count"},
	{"serve.plan_reuse_ratio", "ratio"},
	{"serve.step_requests", "count"},
	{"serve.warm_root_ratio", "ratio"},
	{"serve.capacitated_solves", "count"},
	{"serve.handler_ms", "ms"},
	{"serve.queue_depth_mean", "count"},
	{"serve.codec_us", "us"},
	{"serve.rejected", "count"},
	{"serve.degraded", "count"},
	{"fleet.wakes", "count"},
	{"fleet.wake_fraction", "ratio"},
	{"fleet.epoch_p50_ms", "ms"},
	{"fleet.cpu_pct", "%"},
	{"market.cpu_pct", "%"},
	{"runtime.cpu_pct", "%"},
	{"runtime.gc_cpu_pct", "%"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.mallocs", "count"},
	{"stdlib.cpu_pct", "%"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.achieved_rps", "1/s"},
	{"trace.overhead_pct", "%"},
	{"trace.cpu_samples", "count"},
}

// workload runs one workload; traced selects the per-layer run.
type workload func(seed int64, seconds float64, traced bool, res *result) error

var workloads = map[string]workload{
	"repro":      runRepro,
	"serve-dp":   func(s int64, sec float64, tr bool, r *result) error { return runServe(dpShape, s, sec, tr, r) },
	"serve-milp": func(s int64, sec float64, tr bool, r *result) error { return runServe(milpShape, s, sec, tr, r) },
	"fleet":      runFleet,
}

// buildDir holds everything a run leaves behind.
const buildDir = ".bench_build"

func main() {
	var (
		name    = flag.String("workload", "", "workload: repro, serve-dp, serve-milp or fleet")
		seed    = flag.Int64("seed", 1, "workload seed; every generated input derives from it")
		seconds = flag.Int("seconds", 25, "measurement time of the time-bounded phases")
		trace   = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	traced := *trace == 1

	res := newResult()
	if err := run(*seed, float64(*seconds), traced, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.show("peak_rss_mb", peakRSSMB(), "MB", 1)
	want := endToEnd
	if traced {
		want = perLayer
	}
	out := map[string]metric{}
	for _, m := range want {
		v, ok := res.metrics[m.name]
		if !ok {
			v = metric{Value: 0, Unit: m.unit}
		}
		out[m.name] = v
	}

	st := newStamp(*name, *seed, *seconds, traced)
	failPct := 100 * ratio(float64(res.failed), float64(res.attempted))
	fmt.Printf("stamp %s\n", mustJSON(st))
	for _, l := range res.named {
		fmt.Println("metric", l)
	}
	fmt.Printf("metric %-22s %14.6g %-6s n=%d (failed %d of %d)\n", "fail_pct", failPct, "%", res.attempted, res.failed, res.attempted)
	names := make([]string, 0, len(out))
	for n := range out {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("reported %-26s %14.6g %-6s n=%d\n", n, out[n].Value, out[n].Unit, res.samples[n])
	}
	for _, b := range res.broken {
		fmt.Println("check failed:", b)
	}
	if err := saveResult(*name, *seed, *trace, st, res, out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: saving result:", err)
	}
	fmt.Println(mustJSON(map[string]interface{}{
		"correct":   res.failed == 0 && res.attempted > 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	}))
}

// saveResult writes the stamped result, with sample counts, in the one
// schema every run shares.
func saveResult(name string, seed int64, trace int, st stamp, res *result, out map[string]metric) error {
	dir := buildDir + "/results"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	body := mustJSON(map[string]interface{}{
		"stamp": st, "attempted": res.attempted, "failed": res.failed,
		"checks_failed": res.broken, "metrics": out, "samples": res.samples, "named": res.named,
	})
	file := fmt.Sprintf("%s/%s-seed%d-trace%d.json", dir, name, seed, trace)
	return os.WriteFile(file, []byte(body+"\n"), 0o644)
}

func mustJSON(v interface{}) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps, slices and numbers are marshalled
	}
	return string(b)
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// cpuSeconds is the user plus system CPU time the process has used. A
// hypervisor's steal time is not charged to it, so CPU per operation stays
// steady on a shared host where wall-clock times do not.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// setupTime is the median calibrated CPU and wall time of a workload's
// set-ups.
type setupTime struct {
	cpu, wall float64
	n         int
}

// record reports the set-up: setup_s is its calibrated CPU time, so work
// moved into set-up shows however busy the host is; the wall time is logged
// beside it.
func (st setupTime) record(res *result) {
	res.set("setup_s", st.cpu, "s", st.n)
	res.show("setup_s", st.cpu, "s", st.n)
	res.show("setup_wall_s", st.wall, "s", st.n)
}

// medianSetup runs a workload's set-up n times and returns the last
// result with the median set-up times; every set-up builds the same
// inputs. The set-ups run on one thread (GOMAXPROCS 1), where no thread
// spins for work, so their CPU time is the work itself. discard, when set,
// releases each earlier result outside the timing.
func medianSetup[T any](n int, discard func(T), setup func() (T, error)) (T, setupTime, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var last T
	var cpu, wall []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		seg := newSegments(cutKernels)
		v, err := setup()
		if err != nil {
			return last, setupTime{}, err
		}
		seg.cut()
		wall = append(wall, time.Since(start).Seconds())
		cpu = append(cpu, seg.calibratedMS()/1000)
		if i > 0 && discard != nil {
			discard(last)
		}
		last = v
	}
	return last, setupTime{cpu: median(cpu), wall: median(wall), n: n}, nil
}
