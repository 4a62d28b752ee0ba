package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"rentplan/internal/fleet"
	"rentplan/internal/market"
)

// fleetShape fixes the fleet workload; the seed draws the populations and
// the market.
type fleetShape struct {
	LiteASPs   int     `json:"lite_asps"`
	LiteEpochs int     `json:"lite_epochs"`
	SRRPASPs   int     `json:"srrp_asps"`
	SRRPEpochs int     `json:"srrp_epochs"`
	EpochHours int     `json:"epoch_hours"`
	Feedback   float64 `json:"feedback"`
	Shards     int     `json:"shards"`
	Setups     int     `json:"setups"`
	MinReps    int     `json:"min_reps"`
}

var fleetConfig = fleetShape{
	LiteASPs: 1_000_000, LiteEpochs: 16, SRRPASPs: 256, SRRPEpochs: 4,
	EpochHours: 168, Feedback: 0.3, Shards: 2, Setups: 3, MinReps: 2,
}

// fleetInputs are the two sampled populations.
type fleetInputs struct{ lite, srrp []fleet.ASP }

func sampleFleet(seed int64) (fleetInputs, error) {
	lite, err := fleet.SamplePopulation(fleetConfig.LiteASPs, market.C1Medium, seed)
	if err != nil {
		return fleetInputs{}, err
	}
	srrp, err := fleet.SamplePopulation(fleetConfig.SRRPASPs, market.C1Medium, seed+1)
	return fleetInputs{lite, srrp}, err
}

func fleetRunConfig(pop []fleet.ASP, epochs int, planner fleet.PlannerKind, seed int64) *fleet.Config {
	return &fleet.Config{
		Class: market.C1Medium, Population: pop, Shards: fleetConfig.Shards,
		Epochs: epochs, EpochHours: fleetConfig.EpochHours, Feedback: fleetConfig.Feedback,
		Seed: seed, Planner: planner,
	}
}

// fleetRep is one repetition: the lite phase then the SRRP phase.
type fleetRep struct {
	liteS, srrpS     float64
	liteCPU, srrpCPU *segments
	liteEpochMS      []float64
	srrpEpochMS      []float64
	lite, srrp       *fleet.Result
	digest           [2]string // lite and SRRP phase digests
}

// fleetDigest summarises a result: total cost, wakes, solves and the final
// base spot price, the first and last at full precision.
func fleetDigest(r *fleet.Result) string {
	return fmt.Sprintf("%016x/%d/%d/%016x", math.Float64bits(r.TotalCost), r.Wakes, r.Solves, math.Float64bits(r.FinalBaseSpot))
}

// runPhase runs one fleet phase, timing each epoch through the OnEpoch
// hook, and records spans when traced. Its CPU time is calibrated in
// segments cut in the hook, where every shard waits for the next epoch,
// and after the run. It returns the result, the wall seconds without the
// kernel runs, the CPU segments and the epoch wall times.
func runPhase(cfg *fleet.Config, tr *tracer, name string) (*fleet.Result, float64, *segments, []float64, error) {
	var epochMS []float64
	var kernelWall time.Duration
	seg := newSegments(cutKernels)
	cut := func() {
		t := time.Now()
		seg.cut()
		kernelWall += time.Since(t)
	}
	start := time.Now()
	mark := start
	cfg.OnEpoch = func(rep fleet.EpochReport) {
		now := time.Now()
		epochMS = append(epochMS, ms(now.Sub(mark)))
		tr.record("fleet.epoch", 0, int64(rep.Epoch), mark, now)
		cut()
		mark = time.Now()
	}
	id := tr.begin(name, 0, 0)
	r, err := fleet.Run(cfg)
	tr.end(id)
	cut()
	return r, (time.Since(start) - kernelWall).Seconds(), seg, epochMS, err
}

// fleetOnce runs one repetition from a collected heap, so no repetition
// pays for the garbage of the one before.
func fleetOnce(in fleetInputs, seed int64, tr *tracer) (fleetRep, error) {
	var rep fleetRep
	var err error
	runtime.GC()
	rep.lite, rep.liteS, rep.liteCPU, rep.liteEpochMS, err = runPhase(fleetRunConfig(in.lite, fleetConfig.LiteEpochs, fleet.PlannerLite, seed), tr, "fleet.lite")
	if err != nil {
		return rep, err
	}
	rep.srrp, rep.srrpS, rep.srrpCPU, rep.srrpEpochMS, err = runPhase(fleetRunConfig(in.srrp, fleetConfig.SRRPEpochs, fleet.PlannerSRRP, seed), tr, "fleet.srrp")
	if err != nil {
		return rep, err
	}
	rep.digest = [2]string{fleetDigest(rep.lite), fleetDigest(rep.srrp)}
	return rep, nil
}

// checkFleet compares a repetition with the recorded digests for the seed
// and with the run's first repetition.
func checkFleet(res *result, seed int64, rep, first fleetRep) {
	res.check(rep.digest == first.digest, "repetition digests %v differ from the first %v", rep.digest, first.digest)
	want, ok := fleetDigests[seed]
	res.check(!ok || want == rep.digest, "fleet digests %v, recorded %v for seed %d", rep.digest, want, seed)
	lite := rep.lite
	res.check(lite.SlotsSimulated == int64(fleetConfig.LiteASPs*fleetConfig.LiteEpochs*fleetConfig.EpochHours) &&
		lite.Wakes > 0 && lite.Wakes <= lite.SlotsSimulated && lite.TotalCost > 0 && rep.srrp.Solves > 0,
		"fleet result fails its invariants: slots %d wakes %d cost %v solves %d",
		lite.SlotsSimulated, lite.Wakes, lite.TotalCost, rep.srrp.Solves)
}

func runFleet(seed int64, seconds float64, traced bool, res *result) error {
	setups := fleetConfig.Setups
	if traced {
		setups = 1
	}
	in, setup, err := medianSetup(setups, nil, func() (fleetInputs, error) { return sampleFleet(seed) })
	if err != nil {
		return err
	}
	if traced {
		return fleetTraced(in, seed, res)
	}
	setup.record(res)

	var first fleetRep
	var liteRate, srrpRate, liteEpochs, srrpEpochs, liteCPU, srrpCPU, liteRaw, srrpRaw []float64
	start := time.Now()
	for n := 0; n < fleetConfig.MinReps || time.Since(start).Seconds() < seconds; n++ {
		rep, err := fleetOnce(in, seed, nil)
		if err != nil {
			return err
		}
		if n == 0 {
			first = rep
		}
		checkFleet(res, seed, rep, first)
		liteRate = append(liteRate, float64(rep.lite.SlotsSimulated)/rep.liteS)
		srrpRate = append(srrpRate, float64(rep.srrp.SlotsSimulated)/rep.srrpS)
		liteEpochs = append(liteEpochs, rep.liteEpochMS...)
		srrpEpochs = append(srrpEpochs, rep.srrpEpochMS...)
		liteCPU = append(liteCPU, rep.liteCPU.calibratedMS())
		srrpCPU = append(srrpCPU, rep.srrpCPU.calibratedMS())
		liteRaw = append(liteRaw, rep.liteCPU.rawMS())
		srrpRaw = append(srrpRaw, rep.srrpCPU.rawMS())
	}
	_, recorded := fleetDigests[seed]
	res.named = append(res.named, fmt.Sprintf("digest %s %s (recorded: %v)", first.digest[0], first.digest[1], recorded))
	res.set("op_cpu_ms", median(liteCPU), "ms", len(liteCPU))
	res.set("op2_cpu_ms", median(srrpCPU), "ms", len(srrpCPU))
	res.show("lite_run_cpu_ms", median(liteCPU), "ms", len(liteCPU))
	res.show("lite_run_cpu_ms_raw", median(liteRaw), "ms", len(liteRaw))
	res.show("srrp_run_cpu_ms", median(srrpCPU), "ms", len(srrpCPU))
	res.show("srrp_run_cpu_ms_raw", median(srrpRaw), "ms", len(srrpRaw))
	res.show("asp_slots_per_s", median(liteRate), "1/s", len(liteRate))
	res.show("srrp_asp_slots_per_s", median(srrpRate), "1/s", len(srrpRate))
	res.show("lite_epoch_p50_ms", median(liteEpochs), "ms", len(liteEpochs))
	res.show("srrp_epoch_p50_ms", median(srrpEpochs), "ms", len(srrpEpochs))
	return nil
}

// fleetTraced runs one untraced repetition, then one traced repetition
// with epoch spans and a CPU profile.
func fleetTraced(in fleetInputs, seed int64, res *result) error {
	plain, err := fleetOnce(in, seed, nil)
	if err != nil {
		return err
	}
	checkFleet(res, seed, plain, plain)
	tr := newTracer()
	rt0 := snapRuntime()
	prof, err := startProfile()
	if err != nil {
		return err
	}
	rep, err := fleetOnce(in, seed, tr)
	raw := prof.stop()
	if err != nil {
		return err
	}
	addRuntimeDelta(res, rt0, snapRuntime())
	checkFleet(res, seed, rep, plain)
	if err := addProfile(res, raw); err != nil {
		return err
	}
	lite := rep.lite
	res.set("fleet.wakes", float64(lite.Wakes), "count", 1)
	res.set("fleet.wake_fraction", ratio(float64(lite.Wakes), float64(lite.SlotsSimulated)), "ratio", 1)
	res.set("fleet.epoch_p50_ms", median(rep.liteEpochMS), "ms", len(rep.liteEpochMS))
	res.set("core.replans", float64(rep.srrp.Solves), "count", 1)
	plainRate := float64(plain.lite.SlotsSimulated) / plain.liteS
	tracedRate := float64(lite.SlotsSimulated) / rep.liteS
	res.set("trace.overhead_pct", 100*(plainRate-tracedRate)/tracedRate, "%", 1)
	res.show("asp_slots_per_s_untraced", plainRate, "1/s", 1)
	res.show("asp_slots_per_s_traced", tracedRate, "1/s", 1)
	return writeTrace(buildDir+"/trace", fmt.Sprintf("fleet-seed%d", seed), tr, raw)
}
