// Steady-state allocation regression tests for the pooled streaming
// pipeline. Excluded under the race detector: -race instruments every
// allocation and channel operation, which inflates MemStats counts and
// would make the budgets below meaningless.

//go:build !race

package foces_test

import (
	"context"
	"math/rand"
	"testing"

	"foces"
	"foces/internal/collector"
)

// serveSteadyStateAllocBudget is the allocations-per-window ceiling
// for System.Serve once the window pool, stamp arrays and vector free
// lists are warm. A pooled window costs a bounded handful of
// allocations (the report's result pointers, the sliced stage's
// per-window result set) independent of rule count; the map-shaped
// path it replaced paid O(rules) per window. fattree4/PairExact
// measures ~8 allocs/window; the ceiling leaves room for scheduler
// noise while still tripping far below the map-era cost.
const serveSteadyStateAllocBudget = 512

// serveSteadyState wires a lock-step assembler+Serve pair over a
// pre-generated snapshot sequence and returns a func that replays one
// window per call (pushing every switch, then receiving the verdict).
func serveSteadyState(tb testing.TB, windows int) (step func(), close func()) {
	gen := newSystem(tb, "fattree4", foces.PairExact)
	switches := sortedSwitchIDs(gen)
	seq := serveTestWindows(tb, gen, windows, -1, -1, switches[0], 7)

	sys := newSystem(tb, "fattree4", foces.PairExact)
	asm := collector.NewWindowAssembler(switches, collector.StreamConfig{
		RuleSpace: len(sys.FCM().Rules),
	})
	asm.SetEpoch(sys.Epoch())
	reports, err := sys.Serve(context.Background(), foces.StreamConfig{Windows: asm.Windows()})
	if err != nil {
		tb.Fatal(err)
	}
	w := 0
	step = func() {
		for _, sw := range switches {
			if err := asm.Push(collector.Update{Switch: sw, Counters: seq[w][sw]}); err != nil {
				tb.Fatalf("window %d switch %d: %v", w, sw, err)
			}
		}
		// Window 0 primes baselines; Serve emits no verdict for it.
		if w > 0 {
			sr := <-reports
			if sr.Err != nil {
				tb.Fatalf("window %d: %v", w, sr.Err)
			}
		}
		w++
	}
	return step, func() { asm.Close() }
}

// TestServeSteadyStateAllocs is the allocation regression gate on the
// streaming hot path: after warmup, one full window through
// WindowAssembler + System.Serve (dense delta accumulation, pooled
// window, pooled counter vector, batch scratch) must stay under the
// per-window allocation budget.
func TestServeSteadyStateAllocs(t *testing.T) {
	const (
		warmup = 6
		runs   = 24
	)
	// 1 priming window + manual warmup + AllocsPerRun's untimed
	// warm-up call + the measured runs.
	step, done := serveSteadyState(t, 2+warmup+runs)
	defer done()
	step() // priming
	for i := 0; i < warmup; i++ {
		step()
	}
	allocs := testing.AllocsPerRun(runs, step)
	t.Logf("steady state: %.1f allocs/window (budget %d)", allocs, serveSteadyStateAllocBudget)
	if allocs > serveSteadyStateAllocBudget {
		t.Errorf("System.Serve allocated %.1f times per window; budget is %d", allocs, serveSteadyStateAllocBudget)
	}
}

// cleanRunAllocBudget is the allocations-per-Run ceiling for one clean
// window through System.Run on FatTree(4)/PairExact (both engines).
// Each engine carves its result vectors from one arena per window, so
// a warm Run measures 5 allocations; allocating XHat, YHat and Delta
// per slice again would add three per slice (20 slices) and trip it.
const cleanRunAllocBudget = 10

// TestCleanRunAllocs is the allocation gate on the clean path: a warm
// System.Run on a counter vector must stay within cleanRunAllocBudget.
func TestCleanRunAllocs(t *testing.T) {
	sys := newSystem(t, "fattree4", foces.PairExact)
	y, err := sys.ObserveCounters(rand.New(rand.NewSource(3)), 1000)
	if err != nil {
		t.Fatal(err)
	}
	obs := foces.Observation{Vector: y, RunOptions: foces.RunOptions{Epoch: sys.Epoch()}}
	run := func() {
		if _, err := sys.Run(obs); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		run()
	}
	allocs := testing.AllocsPerRun(50, run)
	t.Logf("clean Run: %.1f allocs (budget %d)", allocs, cleanRunAllocBudget)
	if allocs > cleanRunAllocBudget {
		t.Errorf("System.Run allocated %.1f times per clean window; budget is %d", allocs, cleanRunAllocBudget)
	}
}

// BenchmarkServeSteadyState drives the same warm lock-step pipeline
// for profiling; `make pprof-stream` runs it with -memprofile to
// archive where the remaining steady-state allocations come from.
func BenchmarkServeSteadyState(b *testing.B) {
	const warmup = 6
	step, done := serveSteadyState(b, 1+warmup+b.N)
	defer done()
	step() // priming
	for i := 0; i < warmup; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
