package foces_test

import (
	"math/rand"
	"testing"

	"foces"
	"foces/internal/churn"
	"foces/internal/core"
	"foces/internal/topo"
)

func newLinearSystem(t *testing.T) *foces.System {
	t.Helper()
	top, err := topo.Linear(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := foces.NewSystem(top, foces.PairExact)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestRebuildBaselineFastPath checks the rule-set-hash no-op: rebuilds
// with an unchanged rule set keep the existing baseline objects, and
// any out-of-band controller mutation invalidates the hash.
func TestRebuildBaselineFastPath(t *testing.T) {
	sys := newLinearSystem(t)
	before := sys.FCM()
	if err := sys.RebuildBaseline(); err != nil {
		t.Fatal(err)
	}
	if sys.FCM() != before {
		t.Fatal("RebuildBaseline regenerated an unchanged baseline")
	}
	// Mutate the controller behind the system's back: the hash must
	// catch it and force a real rebuild.
	ctrl := sys.Controller()
	victim := ctrl.Rules()[0]
	if _, err := ctrl.RemoveRule(victim.ID); err != nil {
		t.Fatal(err)
	}
	if err := sys.RebuildBaseline(); err != nil {
		t.Fatal(err)
	}
	if sys.FCM() == before {
		t.Fatal("RebuildBaseline skipped a changed rule set")
	}
	if got := sys.FCM().RuleSpace(); got != ctrl.RuleSpace() {
		t.Fatalf("rebuilt FCM rule space %d, controller %d", got, ctrl.RuleSpace())
	}
}

// TestSystemLiveUpdates drives randomized live mutations through the
// System wrappers and checks that (a) verdicts match a cold-built
// baseline, and (b) the patched data plane produces clean counters
// against the incrementally maintained FCM.
func TestSystemLiveUpdates(t *testing.T) {
	sys := newLinearSystem(t)
	rng := rand.New(rand.NewSource(7))
	ctrl := sys.Controller()

	for round := 0; round < 6; round++ {
		live := ctrl.Rules()
		var u foces.ChurnUpdate
		var err error
		switch op := rng.Intn(3); {
		case op == 0 || len(live) < 4:
			sw := sys.Topology().Switches()[rng.Intn(len(sys.Topology().Switches()))].ID
			h := sys.Topology().Hosts()[rng.Intn(len(sys.Topology().Hosts()))]
			match, merr := sys.Layout().MatchExact(sys.Layout().Wildcard(), "src_ip", h.IP)
			if merr != nil {
				t.Fatal(merr)
			}
			_, u, err = sys.AddRule(sw, 200+round, match, foces.Action{Type: foces.ActionDrop})
		case op == 1:
			u, err = sys.RemoveRule(live[rng.Intn(len(live))].ID)
		default:
			v := live[rng.Intn(len(live))]
			u, err = sys.ModifyRule(v.ID, v.Priority+1, v.Match, v.Action)
		}
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if u.Epoch != uint64(round+1) || sys.Epoch() != u.Epoch {
			t.Fatalf("round %d: epoch %d (system %d)", round, u.Epoch, sys.Epoch())
		}

		// Simulated counters from the patched data plane must be
		// consistent with the incrementally maintained baseline.
		y, err := sys.ObserveCounters(rand.New(rand.NewSource(int64(round))), 500)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys.Run(foces.Observation{Vector: y, RunOptions: foces.RunOptions{Epoch: sys.Epoch()}})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Full.Anomalous {
			t.Fatalf("round %d: clean traffic flagged by full detection (index %g)", round, rep.Index)
		}
		out := rep.Sliced
		if out.Anomalous {
			t.Fatalf("round %d: clean traffic flagged by sliced detection: %v", round, out.Suspects)
		}

		// Verdicts must match a baseline cold-built from the same rules.
		cold, err := churn.NewManager(sys.Topology(), sys.Layout(), ctrl.Rules(), ctrl.RuleSpace(), core.Options{}, churn.Config{})
		if err != nil {
			t.Fatal(err)
		}
		cout, err := cold.DetectSliced(y)
		if err != nil {
			t.Fatal(err)
		}
		if cout.Anomalous != out.Anomalous {
			t.Fatalf("round %d: sliced verdict diverged from cold baseline", round)
		}
	}
	st := sys.ChurnStats()
	if st.Updates != 6 || len(sys.ChurnLog()) != 6 {
		t.Fatalf("churn stats %+v, log %d", st, len(sys.ChurnLog()))
	}
	// A fresh RebuildBaseline now is a no-op: ApplyUpdate kept the hash
	// current.
	before := sys.FCM()
	if err := sys.RebuildBaseline(); err != nil {
		t.Fatal(err)
	}
	if sys.FCM() != before {
		t.Fatal("baseline hash stale after live updates")
	}
}

// TestBaselineReadersDuringChurn reads the baseline through every
// System accessor while another goroutine applies live rule updates.
// The churn manager is the baseline's only owner, so under -race any
// System-side copy of its state shows up as a data race here.
func TestBaselineReadersDuringChurn(t *testing.T) {
	sys := newLinearSystem(t)
	victim := sys.Controller().Rules()[0]
	counters := map[int]uint64{victim.ID: 1}
	done := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := sys.CounterVector(counters); err != nil {
				t.Error(err)
				return
			}
			if sys.FCM() == nil || len(sys.Slices()) == 0 || sys.SlicedDetector() == nil || sys.Detector() == nil || sys.String() == "" {
				t.Error("baseline accessor returned an empty value")
				return
			}
		}
	}()
	for round := 0; round < 20; round++ {
		r, _, err := sys.AddRule(victim.Switch, victim.Priority+1, victim.Match, victim.Action)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if _, err := sys.RemoveRule(r.ID); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	close(done)
	<-readerDone
	if got := sys.Epoch(); got != 40 {
		t.Fatalf("epoch %d after 20 add/remove rounds, want 40", got)
	}
}

// TestSystemDetectReconciled exercises the System-level straddling
// window path end to end.
func TestSystemDetectReconciled(t *testing.T) {
	sys := newLinearSystem(t)
	rng := rand.New(rand.NewSource(3))
	// Snapshot a clean window under epoch 0.
	yOld, err := sys.ObserveCounters(rng, 500)
	if err != nil {
		t.Fatal(err)
	}
	from := sys.Epoch()
	// Remove a traffic-carrying rule mid-"window".
	var victim foces.Rule
	for _, fl := range sys.FCM().Flows {
		if len(fl.RuleIDs) >= 3 {
			victim = sys.FCM().Rules[fl.RuleIDs[0]]
			break
		}
	}
	if victim.Switch < 0 {
		t.Fatal("no multi-hop flow")
	}
	if _, err := sys.RemoveRule(victim.ID); err != nil {
		t.Fatal(err)
	}
	// Also add a rule mid-window, so the rule space grows past the old
	// window's length: the reconciled path must zero-pad yOld rather
	// than reject it (the new row is masked, so the padding never
	// matters).
	if _, _, err := sys.AddRule(victim.Switch, victim.Priority+1, victim.Match, foces.Action{Type: foces.ActionDrop}); err != nil {
		t.Fatal(err)
	}
	if len(yOld) >= len(sys.FCM().Rules) {
		t.Fatalf("rule space did not grow past the old window: %d vs %d rules", len(yOld), len(sys.FCM().Rules))
	}
	masked := sys.AffectedSince(from)
	if len(masked) == 0 {
		t.Fatal("no affected rows recorded")
	}
	// The old window's counters include traffic matched under the old
	// generation on exactly the affected rows; reconciled detection
	// masks them and stays clean, where plain sliced detection may not.
	rep, err := sys.Run(foces.Observation{Vector: yOld, RunOptions: foces.RunOptions{Epoch: from, Mode: foces.ModeSliced}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Path != foces.PathReconciled || rep.Anomalous {
		t.Fatalf("reconciled detection flagged a straddling window: path %q, suspects %v", rep.Path, rep.Suspects)
	}
}
