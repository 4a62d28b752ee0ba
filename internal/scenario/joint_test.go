package scenario

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"rentplan/internal/stats"
)

func TestBuildJointProductStates(t *testing.T) {
	demStates := stats.Discrete{Values: []float64{0.2, 0.6}, Probs: []float64{0.5, 0.5}}
	bids := []float64{0.060, 0.060}
	tr, dem, err := BuildJoint(baseDist(), bids, 0.2, demStates, 0.4, BuildConfig{
		Stages:    2,
		RootPrice: 0.06,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Price states per stage: 3 kept + OOB = 4; demand states: 2 → 8
	// children per vertex. N = 1 + 8 + 64.
	if tr.N() != 73 {
		t.Fatalf("N = %d, want 73", tr.N())
	}
	if len(dem) != tr.N() {
		t.Fatalf("demand slice %d != N %d", len(dem), tr.N())
	}
	if dem[0] != 0.4 {
		t.Fatalf("root demand %v", dem[0])
	}
	// Demand values only from the state set.
	for v := 1; v < tr.N(); v++ {
		if dem[v] != 0.2 && dem[v] != 0.6 {
			t.Fatalf("vertex %d demand %v not a state", v, dem[v])
		}
	}
	// Expected demand per stage = state mean.
	for s := 1; s <= 2; s++ {
		sum, mass := 0.0, 0.0
		for v := 0; v < tr.N(); v++ {
			if tr.Stage[v] == s {
				sum += tr.Prob[v] * dem[v]
				mass += tr.Prob[v]
			}
		}
		if math.Abs(sum/mass-0.4) > 1e-9 {
			t.Fatalf("stage %d mean demand %v, want 0.4", s, sum/mass)
		}
	}
	// Price marginals must match the plain tree's.
	plain, err := Build(baseDist(), bids, 0.2, BuildConfig{Stages: 2, RootPrice: 0.06})
	if err != nil {
		t.Fatal(err)
	}
	for s := 1; s <= 2; s++ {
		if math.Abs(tr.ExpectedPrice(s)-plain.ExpectedPrice(s)) > 1e-9 {
			t.Fatalf("stage %d price mean %v != plain %v", s, tr.ExpectedPrice(s), plain.ExpectedPrice(s))
		}
		if math.Abs(tr.OutOfBidProb(s)-plain.OutOfBidProb(s)) > 1e-9 {
			t.Fatalf("stage %d OOB prob differs", s)
		}
	}
}

func TestBuildJointSingleStateReducesToBuild(t *testing.T) {
	one := stats.Discrete{Values: []float64{0.4}, Probs: []float64{1}}
	bids := []float64{0.058, 0.062, 0.060}
	joint, dem, err := BuildJoint(baseDist(), bids, 0.2, one, 0.4, BuildConfig{
		Stages: 3, MaxBranch: 3, RootPrice: 0.059,
	})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Build(baseDist(), bids, 0.2, BuildConfig{Stages: 3, MaxBranch: 3, RootPrice: 0.059})
	if err != nil {
		t.Fatal(err)
	}
	if joint.N() != plain.N() {
		t.Fatalf("sizes differ: %d vs %d", joint.N(), plain.N())
	}
	for v := 0; v < joint.N(); v++ {
		if joint.Parent[v] != plain.Parent[v] || joint.Stage[v] != plain.Stage[v] ||
			math.Abs(joint.Prob[v]-plain.Prob[v]) > 1e-12 ||
			math.Abs(joint.Price[v]-plain.Price[v]) > 1e-12 ||
			joint.OutOfBid[v] != plain.OutOfBid[v] {
			t.Fatalf("vertex %d differs between joint and plain trees", v)
		}
		if dem[v] != 0.4 {
			t.Fatalf("vertex %d demand %v", v, dem[v])
		}
	}
}

func TestBuildJointValidatesInputs(t *testing.T) {
	one := stats.Discrete{Values: []float64{0.4}, Probs: []float64{1}}
	cfg := BuildConfig{Stages: 1, RootPrice: 0.06}
	if _, _, err := BuildJoint(baseDist(), []float64{0.06}, 0.2, stats.Discrete{}, 0.4, cfg); err == nil {
		t.Fatal("want empty-demand error")
	}
	neg := stats.Discrete{Values: []float64{-0.1}, Probs: []float64{1}}
	if _, _, err := BuildJoint(baseDist(), []float64{0.06}, 0.2, neg, 0.4, cfg); err == nil {
		t.Fatal("want negative-state error")
	}
	if _, _, err := BuildJoint(baseDist(), []float64{0.06}, 0.2, one, -0.4, cfg); err == nil {
		t.Fatal("want negative root demand error")
	}
	if _, _, err := BuildJoint(stats.Discrete{}, []float64{0.06}, 0.2, one, 0.4, cfg); err == nil {
		t.Fatal("want base error")
	}
}

func TestValidateStageGapDetected(t *testing.T) {
	tr, err := Build(baseDist(), []float64{0.06, 0.06}, 0.2, BuildConfig{Stages: 2, RootPrice: 0.06})
	if err != nil {
		t.Fatal(err)
	}
	bad := *tr
	bad.Stage = append([]int(nil), tr.Stage...)
	bad.Stage[len(bad.Stage)-1] = 5 // stage must be parent stage + 1
	if err := bad.Validate(); err == nil {
		t.Fatal("want stage error")
	}
	bad2 := *tr
	bad2.Parent = append([]int(nil), tr.Parent...)
	bad2.Parent[2] = 10 // forward reference breaks topological order
	if err := bad2.Validate(); err == nil {
		t.Fatal("want parent order error")
	}
	bad3 := *tr
	bad3.OutOfBid = nil
	if err := bad3.Validate(); err == nil {
		t.Fatal("want length error")
	}
}

// TestBuildJointRejectsTreesBeyondInt32 plans 40 stages over one price
// state and two demand states: the 41-vertex price tree fits, but the joint
// tree would have about 4·10¹² vertices. BuildJoint must refuse at once,
// without allocating the joint rows.
func TestBuildJointRejectsTreesBeyondInt32(t *testing.T) {
	base := stats.Discrete{Values: []float64{0.05}, Probs: []float64{1}}
	bids := make([]float64, 40)
	for i := range bids {
		bids[i] = 0.06
	}
	dem := stats.Discrete{Values: []float64{1, 2}, Probs: []float64{0.5, 0.5}}
	cfg := BuildConfig{Stages: 40, RootPrice: 0.06}
	if price, err := Build(base, bids, 0.2, cfg); err != nil || price.N() != 41 {
		t.Fatalf("price tree: %v, %v", price, err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr, _, err := BuildJoint(base, bids, 0.2, dem, 1, cfg)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("built a %d-vertex joint tree, want a size error", tr.N())
	}
	if !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("error %q does not name the size limit", err)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
		t.Fatalf("BuildJoint allocated %d bytes before refusing", grown)
	}
}
