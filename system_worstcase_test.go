package foces_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"foces"
)

// Worst-case windows through System.Run: counter vectors a faulty or
// hostile fleet can report at will must keep Run error-free and within
// the cost of an ordinary lossy window. All-zero and all-equal vectors
// used to drive the median into its quadratic equal-keys case.

func worstCaseWindows(t *testing.T) (*foces.System, []float64, map[string][]float64) {
	t.Helper()
	top, err := foces.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := foces.NewSystem(top, foces.PairExact)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Network().SetLinkLoss(0.02); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	lossy, err := sys.ObserveCounters(rng, 1000)
	if err != nil {
		t.Fatal(err)
	}
	n := len(lossy)
	fill := func(f func(i int) float64) []float64 {
		y := make([]float64, n)
		for i := range y {
			y[i] = f(i)
		}
		return y
	}
	const two53 = 1 << 53
	return sys, lossy, map[string][]float64{
		"all-zero":  make([]float64, n),
		"all-equal": fill(func(int) float64 { return 1000 }),
		"one-hot": fill(func(i int) float64 {
			if i == n/2 {
				return 1000
			}
			return 0
		}),
		// Counters near 2^53, where uint64 -> float64 stops being exact.
		"near-2^53": fill(func(i int) float64 { return float64(uint64(two53) - uint64(rng.Intn(1000))) }),
	}
}

func TestRunWorstCaseWindows(t *testing.T) {
	sys, _, windows := worstCaseWindows(t)
	for name, y := range windows {
		rep, err := sys.Run(foces.Observation{Vector: y})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Logf("%s: index=%v anomalous=%v", name, rep.Index, rep.Anomalous)
		switch name {
		case "all-zero":
			if rep.Index != 0 || rep.Anomalous {
				t.Errorf("all-zero: index %v anomalous %v, want 0 and clean", rep.Index, rep.Anomalous)
			}
		case "one-hot":
			if !rep.Anomalous {
				t.Errorf("one-hot: index %v not flagged", rep.Index)
			}
		}
		if math.IsNaN(rep.Index) {
			t.Errorf("%s: NaN index", name)
		}
	}
}

// minRunTime is the fastest of runs Run calls on y.
func minRunTime(t *testing.T, sys *foces.System, y []float64, runs int) time.Duration {
	t.Helper()
	best := time.Duration(math.MaxInt64)
	for r := 0; r < runs; r++ {
		start := time.Now()
		if _, err := sys.Run(foces.Observation{Vector: y}); err != nil {
			t.Fatal(err)
		}
		best = min(best, time.Since(start))
	}
	return best
}

// TestRunWorstCaseWindowCost bounds each worst-case window by 3× the
// per-window Run time of a lossy window, both the minimum of the same
// number of runs in the same process.
func TestRunWorstCaseWindowCost(t *testing.T) {
	if raceEnabled {
		t.Skip("timing bound is meaningless under the race detector")
	}
	const runs = 20
	sys, lossy, windows := worstCaseWindows(t)
	base := minRunTime(t, sys, lossy, runs)
	for name, y := range windows {
		if d := minRunTime(t, sys, y, runs); d > 3*base {
			t.Errorf("%s: Run takes %v, more than 3× a lossy window (%v)", name, d, base)
		}
	}
}
