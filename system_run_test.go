package foces_test

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"foces"
	"foces/internal/core"
	"foces/internal/telemetry"
)

// The Run parity suite pins the unified entry point to the prepared
// engines it dispatches to: on every path, the outcome a Report carries
// must equal, field for field, what a direct call on the System's
// current engines returns for the same window.

// sameOutcome fails unless the two engine outcomes are deeply equal.
// %#v walks every exported field and, unlike JSON, represents the +Inf
// index an attacked window can produce.
func sameOutcome(t *testing.T, name string, run, engine any) {
	t.Helper()
	if !reflect.DeepEqual(run, engine) {
		t.Fatalf("%s: Run diverged from the engine:\nrun:    %#v\nengine: %#v", name, run, engine)
	}
}

func TestRunCleanParity(t *testing.T) {
	sys := newSystem(t, "fattree4", foces.PairExact)
	rng := rand.New(rand.NewSource(11))
	y, err := sys.ObserveCounters(rng, 1000)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run(foces.Observation{Vector: y})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Path != foces.PathClean || rep.Full == nil || rep.Sliced == nil || rep.Partial != nil {
		t.Fatalf("clean dispatch wrong: path=%q full=%v sliced=%v", rep.Path, rep.Full != nil, rep.Sliced != nil)
	}
	full, err := sys.Detector().Detect(y)
	if err != nil {
		t.Fatal(err)
	}
	sliced, err := sys.SlicedDetector().Detect(y)
	if err != nil {
		t.Fatal(err)
	}
	sameOutcome(t, "clean full", *rep.Full, full)
	sameOutcome(t, "clean sliced", *rep.Sliced, sliced)
	if rep.Index != full.Index {
		t.Fatalf("Report.Index %v != full index %v", rep.Index, full.Index)
	}
	if rep.SlicedIndex != sliced.MaxIndex() {
		t.Fatalf("Report.SlicedIndex %v != sliced max %v", rep.SlicedIndex, sliced.MaxIndex())
	}
	if rep.Timings.Total <= 0 || rep.Timings.Total < rep.Timings.Full || rep.Timings.Total < rep.Timings.Sliced {
		t.Fatalf("implausible timings: %+v", rep.Timings)
	}
}

func TestRunMissingParity(t *testing.T) {
	sys := newSystem(t, "fattree4", foces.PairExact)
	rng := rand.New(rand.NewSource(12))
	if _, err := sys.ObserveCounters(rng, 1000); err != nil {
		t.Fatal(err)
	}
	counters := sys.Network().CollectCounters()
	missing := []foces.SwitchID{sys.Slices()[0].Switch}
	rep, err := sys.Run(foces.Observation{Counters: counters, RunOptions: foces.RunOptions{Missing: missing}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Path != foces.PathMissing || rep.Partial == nil || rep.Sliced == nil || rep.Full != nil {
		t.Fatalf("missing dispatch wrong: path=%q", rep.Path)
	}
	partial, err := core.DetectWithMissing(sys.FCM(), counters, missing, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sliced, err := sys.SlicedDetector().DetectMissing(sys.FCM(), sys.FCM().CounterVector(counters), missing, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameOutcome(t, "missing full", *rep.Partial, partial)
	sameOutcome(t, "missing sliced", *rep.Sliced, sliced)
	if rep.Index != partial.Result.Index {
		t.Fatalf("Report.Index %v != partial index %v", rep.Index, partial.Result.Index)
	}
}

func TestRunReconciledParity(t *testing.T) {
	sys := newLinearSystem(t)
	rng := rand.New(rand.NewSource(13))
	yOld, err := sys.ObserveCounters(rng, 500)
	if err != nil {
		t.Fatal(err)
	}
	from := sys.Epoch()
	var victim foces.Rule
	for _, fl := range sys.FCM().Flows {
		if len(fl.RuleIDs) >= 3 {
			victim = sys.FCM().Rules[fl.RuleIDs[0]]
			break
		}
	}
	if _, err := sys.RemoveRule(victim.ID); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.AddRule(victim.Switch, victim.Priority+1, victim.Match, foces.Action{Type: foces.ActionDrop}); err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run(foces.Observation{Vector: yOld, RunOptions: foces.RunOptions{Epoch: from}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Path != foces.PathReconciled || rep.Sliced == nil || rep.Full == nil {
		t.Fatalf("reconciled dispatch wrong: path=%q", rep.Path)
	}
	if rep.EpochLag != sys.Epoch()-from {
		t.Fatalf("EpochLag = %d, want %d", rep.EpochLag, sys.Epoch()-from)
	}
	masked := sys.AffectedSince(from)
	if !reflect.DeepEqual(rep.MaskedRows, masked) {
		t.Fatal("MaskedRows diverged from AffectedSince")
	}
	// The pre-churn window is short of the added rule's row; Run pads it
	// with zeros (the row is masked), and so does the engine call here.
	padded := make([]float64, sys.FCM().NumRules())
	if copy(padded, yOld) == len(padded) {
		t.Fatal("rule space did not grow past the pre-churn window")
	}
	full, err := sys.Detector().DetectMasked(padded, masked)
	if err != nil {
		t.Fatal(err)
	}
	sliced, err := sys.SlicedDetector().DetectMasked(padded, masked)
	if err != nil {
		t.Fatal(err)
	}
	sameOutcome(t, "reconciled full", *rep.Full, full)
	sameOutcome(t, "reconciled sliced", *rep.Sliced, sliced)
	if rep.Anomalous {
		t.Fatalf("reconciled window flagged: %v", rep.Suspects)
	}
}

func TestRunModeSelection(t *testing.T) {
	sys := newLinearSystem(t)
	rng := rand.New(rand.NewSource(14))
	y, err := sys.ObserveCounters(rng, 300)
	if err != nil {
		t.Fatal(err)
	}
	full, err := sys.Run(foces.Observation{Vector: y, RunOptions: foces.RunOptions{Mode: foces.ModeFull}})
	if err != nil {
		t.Fatal(err)
	}
	if full.Full == nil || full.Sliced != nil || full.Timings.Sliced != 0 {
		t.Fatal("ModeFull ran the sliced engine")
	}
	sliced, err := sys.Run(foces.Observation{Vector: y, RunOptions: foces.RunOptions{Mode: foces.ModeSliced}})
	if err != nil {
		t.Fatal(err)
	}
	if sliced.Sliced == nil || sliced.Full != nil || sliced.Timings.Full != 0 {
		t.Fatal("ModeSliced ran the full engine")
	}
	for m, want := range map[foces.Mode]string{foces.ModeAuto: "auto", foces.ModeFull: "full", foces.ModeSliced: "sliced"} {
		if m.String() != want {
			t.Fatalf("Mode(%d).String() = %q", int(m), m.String())
		}
	}
}

func TestRunValidation(t *testing.T) {
	sys := newLinearSystem(t)
	rng := rand.New(rand.NewSource(15))
	y, err := sys.ObserveCounters(rng, 300)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		obs  foces.Observation
		want string
	}{
		{"no counters", foces.Observation{}, "no counters"},
		{"both sources", foces.Observation{Vector: y, Counters: map[int]uint64{}}, "both"},
		{"future epoch", foces.Observation{Vector: y, RunOptions: foces.RunOptions{Epoch: sys.Epoch() + 1}}, "ahead"},
		{"missing needs counters", foces.Observation{Vector: y, RunOptions: foces.RunOptions{Missing: []foces.SwitchID{0}}}, "Counters"},
		{"stale vector", foces.Observation{Vector: y[:len(y)-1]}, "entries"},
		{"out-of-space counter", foces.Observation{Counters: map[int]uint64{sys.FCM().NumRules(): 1}}, "rule space"},
	}
	for _, tc := range cases {
		if _, err := sys.Run(tc.obs); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestRunTelemetry checks that EnableTelemetry arms both the system
// metric families and the recent-verdict ring, and that Run feeds them.
func TestRunTelemetry(t *testing.T) {
	sys := newLinearSystem(t)
	reg := telemetry.New()
	sys.EnableTelemetry(reg)
	if got := sys.RecentRuns(); len(got) != 0 {
		t.Fatalf("ring pre-populated: %d events", len(got))
	}
	rng := rand.New(rand.NewSource(16))
	y, err := sys.ObserveCounters(rng, 300)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := sys.Run(foces.Observation{Vector: y}); err != nil {
			t.Fatal(err)
		}
	}
	events := sys.RecentRuns()
	if len(events) != 3 {
		t.Fatalf("ring holds %d events, want 3", len(events))
	}
	for _, ev := range events {
		if ev.Path != foces.PathClean || ev.ElapsedNS <= 0 {
			t.Fatalf("bad event: %+v", ev)
		}
		if math.IsInf(ev.Index, 0) || math.IsInf(ev.SlicedIndex, 0) {
			t.Fatalf("event carries non-encodable index: %+v", ev)
		}
	}
	fams := reg.Gather()
	seen := map[string]bool{}
	for _, f := range fams {
		seen[f.Name] = true
	}
	for _, want := range []string{
		"foces_system_run_seconds",
		"foces_system_runs_total",
		"foces_detector_detect_seconds",
		"foces_churn_epoch",
	} {
		if !seen[want] {
			t.Fatalf("family %s not registered", want)
		}
	}
	var runs uint64
	for _, f := range fams {
		if f.Name != "foces_system_runs_total" {
			continue
		}
		for _, s := range f.Samples {
			runs += uint64(s.Value)
		}
	}
	if runs != 3 {
		t.Fatalf("foces_system_runs_total = %d, want 3", runs)
	}

	// One window on each of the other paths lands exactly one event
	// carrying that path.
	counters := sys.Network().CollectCounters()
	missing := foces.Observation{Counters: counters, RunOptions: foces.RunOptions{Missing: []foces.SwitchID{sys.Slices()[0].Switch}}}
	expectOneEvent(t, sys, missing, foces.PathMissing)
	from := sys.Epoch()
	if _, err := sys.RemoveRule(sys.Controller().Rules()[0].ID); err != nil {
		t.Fatal(err)
	}
	expectOneEvent(t, sys, foces.Observation{Vector: y, RunOptions: foces.RunOptions{Epoch: from}}, foces.PathReconciled)
	expectOneEvent(t, sys, foces.Observation{Counters: counters, RunOptions: foces.RunOptions{Epoch: sys.Epoch()}}, foces.PathClean)
}

// expectOneEvent runs obs and checks that it appended exactly one
// recent-ring event, on the given path.
func expectOneEvent(t *testing.T, sys *foces.System, obs foces.Observation, path string) {
	t.Helper()
	before := len(sys.RecentRuns())
	rep, err := sys.Run(obs)
	if err != nil {
		t.Fatal(err)
	}
	events := sys.RecentRuns()
	if len(events) != before+1 {
		t.Fatalf("%s run: ring went from %d to %d events", path, before, len(events))
	}
	if ev := events[len(events)-1]; rep.Path != path || ev.Path != path || ev.ElapsedNS <= 0 {
		t.Fatalf("%s run: report path %q, event %+v", path, rep.Path, ev)
	}
}
