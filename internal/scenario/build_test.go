package scenario

import (
	"runtime"
	"strings"
	"testing"

	"rentplan/internal/stats"
)

// reproBids are the bids of a 5-stage tree at the reproduction's shape:
// each keeps three of baseDist's states below the bid and leaves an
// out-of-bid tail, so MaxBranch 4 caps nothing and the tree has
// 1 + 4 + … + 4⁵ = 1365 vertices.
var reproBids = []float64{0.061, 0.061, 0.061, 0.061, 0.061}

// TestBuildAllocations pins the allocations of one Build at the
// reproduction's 5/4 shape: 6 for the Tree and its five rows, 1 for the
// per-stage table, and 9 per stage for its temporaries (the bid-adjusted
// distribution's appended rows, the aggregated copy and the state slice).
func TestBuildAllocations(t *testing.T) {
	cfg := BuildConfig{Stages: 5, MaxBranch: 4, RootPrice: 0.06}
	tr, err := Build(baseDist(), reproBids, 0.2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.N() != 1365 {
		t.Fatalf("N = %d, want 1365", tr.N())
	}
	allocs := testing.AllocsPerRun(20, func() { _, _ = Build(baseDist(), reproBids, 0.2, cfg) })
	if want := float64(6 + 1 + 5*9); allocs != want {
		t.Fatalf("%v allocations per Build, want %v", allocs, want)
	}
}

// TestBuildRejectsTreesBeyondInt32 requests 2 states per stage over 40
// stages, about 2·10¹² vertices: Build must refuse at once, without
// allocating the rows.
func TestBuildRejectsTreesBeyondInt32(t *testing.T) {
	base := stats.Discrete{Values: []float64{0.05, 0.07}, Probs: []float64{0.5, 0.5}}
	bids := make([]float64, 40)
	for i := range bids {
		bids[i] = 0.06
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr, err := Build(base, bids, 0.2, BuildConfig{Stages: 40, RootPrice: 0.06})
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("built a %d-vertex tree, want a size error", tr.N())
	}
	if !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("error %q does not name the size limit", err)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
		t.Fatalf("Build allocated %d bytes before refusing", grown)
	}
}

// TestValidateReportsLowestStage corrupts the mass of two stages: every
// call must name the lower one.
func TestValidateReportsLowestStage(t *testing.T) {
	tr, err := Build(baseDist(), reproBids[:3], 0.2, BuildConfig{Stages: 3, RootPrice: 0.06})
	if err != nil {
		t.Fatal(err)
	}
	bad := *tr
	bad.Prob = append([]float64(nil), tr.Prob...)
	bad.Prob[1] /= 2               // stage 1
	bad.Prob[len(bad.Prob)-1] /= 2 // stage 3
	want := ""
	for i := 0; i < 50; i++ {
		err := bad.Validate()
		if err == nil {
			t.Fatal("want mass error")
		}
		if i == 0 {
			want = err.Error()
			if !strings.Contains(want, "stage 1 ") {
				t.Fatalf("error %q does not name stage 1", want)
			}
		} else if err.Error() != want {
			t.Fatalf("call %d: error %q, first call %q", i, err, want)
		}
	}
}
