package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"time"

	"rentplan/internal/experiments"
	"rentplan/internal/market"
)

// reproSetups is how many times the repro set-up (the 507-day reference
// traces) is built to take its median.
const reproSetups = 5

// reproConfig is the paperrepro default configuration with the workload
// seed as its demand seed.
func reproConfig(seed int64) (*experiments.Config, error) {
	cfg, err := experiments.DefaultConfig()
	if err != nil {
		return nil, err
	}
	cfg.DemandSeed = seed
	return cfg, nil
}

// writeReport writes exactly what paperrepro prints for cfg, without the
// closing "completed in" line: the paper figures, then the extensions. It
// returns the CPU milliseconds of each of the two parts, calibrated
// (sampledCPU) and raw.
func writeReport(cfg *experiments.Config, w io.Writer) (paper, ext [2]float64, err error) {
	fmt.Fprintf(w, "Reproduction of: Zhao et al., \"Optimal Resource Rental Planning for\n")
	fmt.Fprintf(w, "Elastic Applications in Cloud Market\", IPDPS 2012.\n")
	fmt.Fprintf(w, "Configuration: %d traces, history %d days, %d evaluation windows.\n\n",
		len(cfg.Traces), cfg.HistDays, len(cfg.EvalDays))
	paper[0], paper[1], err = sampledCPU(func() error { return experiments.RunAll(cfg, w, false) })
	if err != nil {
		return paper, ext, err
	}
	fmt.Fprintln(w)
	ext[0], ext[1], err = sampledCPU(func() error { return experiments.RunExtensions(cfg, w) })
	return paper, ext, err
}

// reportDigest is the first 16 hex digits of the report's SHA-256.
func reportDigest(report []byte) string {
	sum := sha256.Sum256(report)
	return hex.EncodeToString(sum[:])[:16]
}

// checkReport applies the report's own shape checks and the recorded
// digest for the seed.
func checkReport(res *result, seed int64, report []byte) {
	text := string(report)
	res.check(strings.Contains(text, "shape check passed") && !strings.Contains(text, "SHAPE CHECK FAILED"),
		"Fig. 12(a) shape check did not pass")
	res.check(strings.Contains(text, "== Extension: fleet market equilibrium"), "report is incomplete")
	digest := reportDigest(report)
	want, ok := reproDigests[seed]
	res.check(!ok || want == digest, "report digest %s, recorded %s for seed %d", digest, want, seed)
	if !ok {
		res.named = append(res.named, fmt.Sprintf("digest %s (no digest recorded for seed %d: only the shape checks apply)", digest, seed))
	} else {
		res.named = append(res.named, "digest "+digest+" (matches the recorded digest)")
	}
}

func runRepro(seed int64, _ float64, traced bool, res *result) error {
	setups := reproSetups
	if traced {
		setups = 1
	}
	cfg, setup, err := medianSetup(setups, nil, func() (*experiments.Config, error) { return reproConfig(seed) })
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	start := time.Now()
	paper, ext, err := writeReport(cfg, &buf)
	if err != nil {
		return err
	}
	reproS := time.Since(start).Seconds()
	checkReport(res, seed, buf.Bytes())
	res.show("repro_s", reproS, "s", 1)
	res.show("repro_cpu_s", (paper[1]+ext[1])/1000, "s", 1)
	if !traced {
		setup.record(res)
		res.set("op_cpu_ms", paper[0], "ms", 1)
		res.set("op2_cpu_ms", ext[0], "ms", 1)
		res.show("paper_figures_cpu_ms", paper[0], "ms", 1)
		res.show("paper_figures_cpu_ms_raw", paper[1], "ms", 1)
		res.show("extensions_cpu_ms", ext[0], "ms", 1)
		res.show("extensions_cpu_ms_raw", ext[1], "ms", 1)
		return nil
	}
	return reproTraced(cfg, seed, reproS, res)
}

// reproTraced repeats the report's work as the individual public figure
// and study calls, each under a span, with a CPU profile.
func reproTraced(cfg *experiments.Config, seed int64, plainS float64, res *result) error {
	tr := newTracer()
	rt0 := snapRuntime()
	prof, err := startProfile()
	if err != nil {
		return err
	}
	root := tr.begin("experiments.report", 0, 0)
	call := func(name string, fn func() error) error {
		id := tr.begin(name, root, 0)
		defer tr.end(id)
		return fn()
	}
	day := cfg.EvalDays[len(cfg.EvalDays)/2]
	var origins int
	steps := []struct {
		name string
		fn   func() error
	}{
		{"experiments.other", func() error { _, err := experiments.Fig3BoxWhisker(cfg); return err }},
		{"experiments.other", func() error { _, err := experiments.Fig4UpdateFrequency(cfg); return err }},
		{"experiments.other", func() error { _, err := experiments.Fig5Histogram(cfg, day); return err }},
		{"experiments.other", func() error { _, err := experiments.Fig6Decomposition(cfg, day); return err }},
		{"experiments.other", func() error { _, err := experiments.Fig7ACFPACF(cfg, day, 30); return err }},
		{"experiments.fig8", func() error { _, err := experiments.Fig8Forecast(cfg, day, false); return err }},
		{"experiments.other", func() error { _, err := experiments.Fig10CostComparison(cfg); return err }},
		{"experiments.other", func() error { _, err := experiments.Fig11Sensitivity(cfg); return err }},
		{"experiments.fig12a", func() error {
			rows, err := experiments.Fig12aOverpay(cfg)
			if err == nil {
				res.check(experiments.Fig12aValidate(rows) == nil, "traced Fig. 12(a) shape check failed")
			}
			return err
		}},
		{"experiments.fig12b", func() error { _, _, err := experiments.Fig12bBidPrecision(cfg); return err }},
		{"experiments.other", func() error {
			_, err := experiments.CapacitySweep(cfg, []float64{20, 1.0, 0.7, 0.5, 0.3})
			return err
		}},
		{"experiments.horizon", func() error {
			hps, err := experiments.ForecastHorizonStudy(cfg, []int{1, 3, 6, 12, 24})
			for _, hp := range hps {
				origins += hp.Origins
			}
			return err
		}},
		{"experiments.other", func() error {
			_, err := experiments.RiskFrontier(cfg, []float64{0, 0.25, 0.5, 0.75, 0.95})
			return err
		}},
		{"experiments.other", func() error { _, err := experiments.FederationStudy(cfg, []int{1, 2, 3, 5}); return err }},
		{"experiments.robustness", func() error { _, err := experiments.RobustnessStudy(9001, 5); return err }},
		{"experiments.other", func() error {
			_, err := experiments.ScenarioReductionStudy(cfg, []int{32, 16, 8, 4})
			return err
		}},
		{"experiments.other", func() error {
			_, err := experiments.FleetEquilibriumStudy(market.C1Medium, 20000, 10, cfg.DemandSeed)
			return err
		}},
	}
	for _, st := range steps {
		if err := call(st.name, st.fn); err != nil {
			prof.stop()
			return err
		}
	}
	tr.end(root)
	raw := prof.stop()
	addRuntimeDelta(res, rt0, snapRuntime())
	if err := addProfile(res, raw); err != nil {
		return err
	}
	self := selfTimes(tr.spans)
	for _, n := range []string{"fig8", "fig12a", "fig12b", "horizon", "robustness"} {
		res.set("experiments."+n+"_s", tr.total("experiments."+n).Seconds(), "s", 1)
	}
	res.set("experiments.other_s", (tr.total("experiments.other") + self["experiments.report"]).Seconds(), "s", 1)
	res.set("arima.origins", float64(origins), "count", 1)
	tracedS := tr.total("experiments.report").Seconds()
	res.set("trace.overhead_pct", 100*(tracedS-plainS)/plainS, "%", 1)
	res.show("repro_s_traced", tracedS, "s", 1)
	return writeTrace(buildDir+"/trace", fmt.Sprintf("repro-seed%d", seed), tr, raw)
}
