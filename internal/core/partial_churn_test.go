package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"foces/internal/churn"
	"foces/internal/controller"
	"foces/internal/core"
	"foces/internal/flowtable"
	"foces/internal/header"
	"foces/internal/topo"
)

// TestDetectMissingAfterRankOneUpdate runs the prepared missing path on
// slice engines the churn manager advanced by rank-one updates instead
// of refactoring. A repaired factor may differ from a cold one in float
// dust, so against the cold oracle the verdicts and Suspects must be
// equal and the indices within 1e-12 relative.
func TestDetectMissingAfterRankOneUpdate(t *testing.T) {
	top, err := topo.ByName("fattree4")
	if err != nil {
		t.Fatal(err)
	}
	layout := header.FiveTuple()
	ctrl, err := controller.New(top, layout, controller.PairExact)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.ComputeRules(); err != nil {
		t.Fatal(err)
	}
	mgr, err := churn.NewManager(top, layout, ctrl.Rules(), ctrl.RuleSpace(), core.Options{}, churn.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var batch []controller.RuleChange
	ctrl.SetChangeObserver(func(ch []controller.RuleChange) { batch = append(batch, ch...) })
	// A rule for a source address no host owns matches no flow: the
	// column classes survive, so the slices of its switch are repaired
	// by a rank-one update instead of refactored (the disrupted
	// streaming workload churns the same kind of rule).
	phantomIP := uint64(0)
	for _, h := range top.Hosts() {
		if h.IP >= phantomIP {
			phantomIP = h.IP + 1
		}
	}
	match, err := layout.MatchExact(layout.Wildcard(), header.FieldSrcIP, phantomIP)
	if err != nil {
		t.Fatal(err)
	}
	sw := top.Switches()[len(top.Switches())/2].ID
	if _, err := ctrl.AddRule(sw, 1, match, flowtable.Action{Type: flowtable.ActionDrop}); err != nil {
		t.Fatal(err)
	}
	u, err := mgr.Apply(batch)
	if err != nil {
		t.Fatal(err)
	}
	if u.SlicesUpdated == 0 {
		t.Fatalf("update repaired no slice by rank-one update: %+v", u)
	}
	f, slices, sd := mgr.FCM(), mgr.Slices(), mgr.Sliced()

	// Counters are the new FCM's expected counters under 2% random loss;
	// the second window also zeroes one counter, a dropped rule.
	rng := rand.New(rand.NewSource(11))
	x := make([]float64, f.NumFlows())
	for j := range x {
		x[j] = float64(500 + rng.Intn(1000))
	}
	y, err := f.H.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	var windows []map[int]uint64
	for w := 0; w < 2; w++ {
		counters := make(map[int]uint64, len(y))
		for rid, v := range y {
			if f.Rules[rid].Switch >= 0 {
				counters[rid] = uint64(math.Round(v * (1 - 0.02*rng.Float64())))
			}
		}
		windows = append(windows, counters)
	}
	windows[1][f.Flows[0].RuleIDs[len(f.Flows[0].RuleIDs)-1]] = 0

	flagged := 0
	for w, counters := range windows {
		yw := f.CounterVector(counters)
		sets := [][]topo.SwitchID{{sw, top.Neighbors(sw)[0]}}
		for _, s := range top.Switches() {
			sets = append(sets, []topo.SwitchID{s.ID})
		}
		for _, missing := range sets {
			got, err := sd.DetectMissing(f, yw, missing, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.ColdSlicedWithMissing(f, slices, counters, missing, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			core.SameVerdicts(t, fmt.Sprintf("window %d missing %v", w, missing), got, want, 1e-12)
			if got.Anomalous {
				flagged++
			}
		}
	}
	if flagged == 0 {
		t.Fatal("no window was flagged; the dropped counter exercises nothing")
	}
}
