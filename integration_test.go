package foces_test

import (
	"math/rand"
	"testing"

	"foces"
)

// TestRandomFabricsEndToEnd is the repository's randomized end-to-end
// property test: for a spread of random regular fabrics, the whole
// pipeline must hold — intent verifies, the FCM's expected counters
// match simulation exactly (lossless), every injected port swap is
// either detected or provably masked per Theorem 1, and repair
// restores quiet.
func TestRandomFabricsEndToEnd(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		seed := seed
		top, err := foces.Jellyfish(12, 3, 1, seed)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := foces.NewSystem(top, foces.PairExact)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := foces.VerifyIntent(top, sys.Layout(), sys.Controller().Rules())
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("seed %d: intent broken: %s", seed, rep)
		}
		rng := rand.New(rand.NewSource(seed))

		// Expected counters must equal simulation (H·X₀ = Y in a
		// lossless network) for EVERY rule.
		y, err := sys.ObserveCounters(rng, 777)
		if err != nil {
			t.Fatal(err)
		}
		volumes := make(map[foces.Pair]uint64)
		for _, src := range top.Hosts() {
			for _, dst := range top.Hosts() {
				if src.ID != dst.ID {
					volumes[foces.Pair{Src: src.ID, Dst: dst.ID}] = 777
				}
			}
		}
		want, err := sys.FCM().ExpectedCounters(volumes)
		if err != nil {
			t.Fatal(err)
		}
		for i := range y {
			if y[i] != want[i] {
				t.Fatalf("seed %d: rule %d counter %v != expected %v", seed, i, y[i], want[i])
			}
		}

		// Three random attacks, each applied alone.
		for trial := 0; trial < 3; trial++ {
			atk, err := sys.InjectRandomAttack(rng, foces.AttackPortSwap)
			if err != nil {
				t.Fatal(err)
			}
			y, err := sys.ObserveCounters(rng, 777)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := sys.Run(foces.Observation{Vector: y, RunOptions: foces.RunOptions{Mode: foces.ModeFull}})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Anomalous {
				// Either the detector is broken or the deviation is one
				// of the provably masked ones. Check which.
				masked, merr := allDeviationsMasked(sys, atk)
				if merr != nil {
					t.Fatal(merr)
				}
				if !masked {
					t.Fatalf("seed %d trial %d: detectable attack missed (AI=%v, %+v)",
						seed, trial, rep.Index, atk)
				}
			}
			if err := atk.Revert(sys.Network()); err != nil {
				t.Fatal(err)
			}
			y, err = sys.ObserveCounters(rng, 777)
			if err != nil {
				t.Fatal(err)
			}
			rep, err = sys.Run(foces.Observation{Vector: y, RunOptions: foces.RunOptions{Mode: foces.ModeFull}})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Anomalous {
				t.Fatalf("seed %d trial %d: repaired fabric still flagged", seed, trial)
			}
		}
	}
}

// allDeviationsMasked reports whether every flow through the attacked
// rule deviates onto a history inside span(H) — the only way a port
// swap can legally evade detection (Theorem 1).
func allDeviationsMasked(sys *foces.System, atk foces.Attack) (bool, error) {
	f := sys.FCM()
	victim := f.Rules[atk.RuleID]
	_ = victim
	for _, fl := range f.Flows {
		onPath := false
		for _, rid := range fl.RuleIDs {
			if rid == atk.RuleID {
				onPath = true
			}
		}
		if !onPath {
			continue
		}
		// Truncate at the victim: with pair-exact rules the deviated
		// packets miss everywhere else, so h' is the prefix up to and
		// including the victim.
		var hPrime []int
		for _, rid := range fl.RuleIDs {
			hPrime = append(hPrime, rid)
			if rid == atk.RuleID {
				break
			}
		}
		d, err := sys.AnalyzeDetectability(hPrime)
		if err != nil {
			return false, err
		}
		if d.Algebraic {
			return false, nil
		}
	}
	return true, nil
}

func TestFacadeCoverageAndHarden(t *testing.T) {
	sys := newSystem(t, "fattree4", foces.DestAggregate)
	before, err := foces.AnalyzeCoverage(sys.FCM())
	if err != nil {
		t.Fatal(err)
	}
	if before.Total == 0 || before.DetectableFraction() <= 0 {
		t.Fatalf("coverage report empty: %+v", before)
	}
	hardened, b, after, err := foces.Harden(sys.FCM())
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Undetectable) > len(b.Undetectable) {
		t.Fatal("hardening made things worse")
	}
	if hardened.NumRules() < sys.FCM().NumRules() {
		t.Fatal("hardened FCM lost rules")
	}
}

func TestFacadeGenerateFCM(t *testing.T) {
	sys := newSystem(t, "fattree4", foces.PairExact)
	f, err := foces.GenerateFCM(sys.Topology(), sys.Layout(), sys.Controller().Rules())
	if err != nil {
		t.Fatal(err)
	}
	if f.NumFlows() != 240 {
		t.Fatalf("flows = %d", f.NumFlows())
	}
}

func TestNewSystemWithPairs(t *testing.T) {
	top, err := foces.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	hosts := top.Hosts()
	pairs := [][2]foces.HostID{
		{hosts[0].ID, hosts[5].ID},
		{hosts[5].ID, hosts[0].ID},
		{hosts[1].ID, hosts[9].ID},
	}
	sys, err := foces.NewSystemWithPairs(top, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if sys.FCM().NumFlows() != 3 {
		t.Fatalf("flows = %d, want 3", sys.FCM().NumFlows())
	}
	rng := rand.New(rand.NewSource(1))
	tm := foces.TrafficMatrix{
		{Src: hosts[0].ID, Dst: hosts[5].ID}: 100,
		{Src: hosts[5].ID, Dst: hosts[0].ID}: 100,
		{Src: hosts[1].ID, Dst: hosts[9].ID}: 100,
	}
	y, err := sys.ObserveCountersFor(rng, tm)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run(foces.Observation{Vector: y, RunOptions: foces.RunOptions{Mode: foces.ModeFull}})
	if err != nil || rep.Anomalous {
		t.Fatalf("pairs system detection: %+v %v", rep, err)
	}
}
