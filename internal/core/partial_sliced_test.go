package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"foces/internal/controller"
	"foces/internal/dataplane"
	"foces/internal/fcm"
	"foces/internal/matrix"
	"foces/internal/topo"
)

// ColdSlicedWithMissing is the reference for SlicedDetector.DetectMissing:
// the original cold derivation that re-derives every surviving slice
// from f.H without its missing-switch rows and factors it for the call.
// It is exported so the external churn-backed tests can use it too.
func ColdSlicedWithMissing(f *fcm.FCM, slices []Slice, counters map[int]uint64, missing []topo.SwitchID, opts Options) (SlicedOutcome, error) {
	down := make(map[topo.SwitchID]bool, len(missing))
	for _, sw := range missing {
		down[sw] = true
	}
	var out SlicedOutcome
	type suspect struct {
		sw    topo.SwitchID
		index float64
	}
	var suspects []suspect
	checked := 0
	for _, sl := range slices {
		if down[sl.Switch] {
			continue
		}
		rows := make([]int, 0, len(sl.RuleRows))
		for _, rid := range sl.RuleRows {
			if !down[f.Rules[rid].Switch] {
				rows = append(rows, rid)
			}
		}
		if len(rows) == 0 {
			continue
		}
		sub, err := f.H.SubMatrix(rows, sl.FlowCols)
		if err != nil {
			return SlicedOutcome{}, fmt.Errorf("core: partial slice for switch %d: %w", sl.Switch, err)
		}
		y := make([]float64, len(rows))
		for i, rid := range rows {
			y[i] = float64(counters[rid])
		}
		res, err := Detect(sub, y, opts)
		if err != nil {
			return SlicedOutcome{}, fmt.Errorf("core: partial slice for switch %d: %w", sl.Switch, err)
		}
		checked++
		out.PerSwitch = append(out.PerSwitch, SliceResult{Switch: sl.Switch, Result: res})
		if res.Anomalous {
			out.Anomalous = true
			suspects = append(suspects, suspect{sw: sl.Switch, index: res.Index})
		}
	}
	if checked == 0 {
		return SlicedOutcome{}, fmt.Errorf("core: every slice is hosted on a missing switch; nothing to check")
	}
	sort.SliceStable(suspects, func(i, j int) bool { return suspects[i].index > suspects[j].index })
	for _, s := range suspects {
		out.Suspects = append(out.Suspects, s.sw)
	}
	return out, nil
}

// detectMissing prepares a sliced engine for f and runs the missing
// path on it.
func detectMissing(t *testing.T, f *fcm.FCM, slices []Slice, counters map[int]uint64, missing []topo.SwitchID, opts Options) (SlicedOutcome, error) {
	t.Helper()
	sd, err := NewSlicedDetector(slices, f.NumRules(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return sd.DetectMissing(f, f.CounterVector(counters), missing, opts)
}

func TestDetectSlicedWithMissingCleanNetwork(t *testing.T) {
	top, net, f := partialSetup(t)
	slices, err := BuildSlices(f)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	if _, err := net.Run(rng, dataplane.UniformTraffic(top, 1000)); err != nil {
		t.Fatal(err)
	}
	counters := net.CollectCounters()
	missing := []topo.SwitchID{0, 5}
	out, err := detectMissing(t, f, slices, counters, missing, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Anomalous {
		t.Fatalf("clean partial sliced view flagged: suspects=%v", out.Suspects)
	}
	// Missing switches' own slices must be skipped.
	for _, r := range out.PerSwitch {
		if r.Switch == 0 || r.Switch == 5 {
			t.Fatalf("slice of missing switch %d was checked", r.Switch)
		}
	}
	if len(out.PerSwitch) != len(slices)-2 {
		t.Fatalf("checked %d slices, want %d", len(out.PerSwitch), len(slices)-2)
	}
}

func TestDetectSlicedWithMissingStillLocalizes(t *testing.T) {
	top, net, f := partialSetup(t)
	slices, err := BuildSlices(f)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	atk, err := dataplane.RandomAttack(rng, net, dataplane.AttackDrop)
	if err != nil {
		t.Fatal(err)
	}
	if err := atk.Apply(net); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(rng, dataplane.UniformTraffic(top, 1000)); err != nil {
		t.Fatal(err)
	}
	counters := net.CollectCounters()
	// A switch that is neither the attacker nor its neighbour goes dark.
	var missing []topo.SwitchID
	for _, s := range top.Switches() {
		if s.ID == atk.Switch {
			continue
		}
		isNbr := false
		for _, n := range top.Neighbors(atk.Switch) {
			if n == s.ID {
				isNbr = true
			}
		}
		if !isNbr {
			missing = append(missing, s.ID)
			break
		}
	}
	for _, r := range f.Rules {
		if r.Switch == missing[0] {
			delete(counters, r.ID)
		}
	}
	out, err := detectMissing(t, f, slices, counters, missing, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Anomalous || len(out.Suspects) == 0 {
		t.Fatalf("degraded sliced view missed the attack: %+v", out)
	}
	for _, s := range out.Suspects {
		if s == missing[0] {
			t.Fatalf("missing switch %d cannot be a suspect — its slice was skipped", s)
		}
	}
}

func TestDetectSlicedWithMissingNoneMatchesFull(t *testing.T) {
	top, net, f := partialSetup(t)
	slices, err := BuildSlices(f)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	if _, err := net.Run(rng, dataplane.UniformTraffic(top, 500)); err != nil {
		t.Fatal(err)
	}
	counters := net.CollectCounters()
	out, err := detectMissing(t, f, slices, counters, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := DetectSliced(slices, f.CounterVector(counters), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// With nothing missing every slice runs on its prepared engine, so
	// the outcome is Detect's, byte for byte.
	if !reflect.DeepEqual(out, full) {
		t.Fatalf("no-missing sliced run diverged: partial %d slices anomalous=%v, full %d slices anomalous=%v",
			len(out.PerSwitch), out.Anomalous, len(full.PerSwitch), full.Anomalous)
	}
}

func TestDetectSlicedWithMissingAllSwitches(t *testing.T) {
	top, _, f := partialSetup(t)
	slices, err := BuildSlices(f)
	if err != nil {
		t.Fatal(err)
	}
	var all []topo.SwitchID
	for _, s := range top.Switches() {
		all = append(all, s.ID)
	}
	if _, err := detectMissing(t, f, slices, nil, all, Options{}); err == nil {
		t.Fatal("all-missing sliced detection must error")
	}
	sd, err := NewSlicedDetector(slices, f.NumRules(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sd.DetectMissing(f, make([]float64, f.NumRules()-1), nil, Options{}); err == nil {
		t.Fatal("short counter vector must error")
	}
}

// TestDetectMissingConcurrentUse runs the missing path and the clean
// path on one engine from several goroutines at once: both draw
// scratch from the engine's pool, and every outcome must equal its
// sequential reference.
func TestDetectMissingConcurrentUse(t *testing.T) {
	top, net, f := partialSetup(t)
	slices, err := BuildSlices(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(rand.New(rand.NewSource(6)), dataplane.UniformTraffic(top, 1000)); err != nil {
		t.Fatal(err)
	}
	y := f.CounterVector(net.CollectCounters())
	sd, err := NewSlicedDetector(slices, f.NumRules(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	missing := []topo.SwitchID{slices[0].Switch}
	wantMissing, err := sd.DetectMissing(f, y, missing, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantClean, err := sd.DetectSequential(y)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				var out, want SlicedOutcome
				var err error
				if (g+r)%2 == 0 {
					out, err = sd.DetectMissing(f, y, missing, Options{})
					want = wantMissing
				} else {
					out, err = sd.Detect(y)
					want = wantClean
				}
				if err != nil {
					errCh <- err
					return
				}
				if !reflect.DeepEqual(out, want) {
					errCh <- errMismatch
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// lossyWindows bootstraps FatTree(4) under the given policy with 2%
// link loss and returns its FCM, slices, and per-interval counters:
// clean windows first, then windows under a port-swap attack.
func lossyWindows(t *testing.T, mode controller.PolicyMode, seed int64, clean, attacked int) (*topo.Topology, *fcm.FCM, []Slice, []map[int]uint64) {
	t.Helper()
	top, err := topo.ByName("fattree4")
	if err != nil {
		t.Fatal(err)
	}
	ctrl, net, err := controller.Bootstrap(top, layout, mode)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fcm.Generate(top, layout, ctrl.Rules())
	if err != nil {
		t.Fatal(err)
	}
	slices, err := BuildSlices(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SetLinkLoss(0.02); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	tm := dataplane.UniformTraffic(top, 1000)
	var windows []map[int]uint64
	run := func(n int) {
		for i := 0; i < n; i++ {
			net.ResetCounters()
			if _, err := net.Run(rng, tm); err != nil {
				t.Fatal(err)
			}
			windows = append(windows, net.CollectCounters())
		}
	}
	run(clean)
	atk, err := dataplane.RandomAttack(rng, net, dataplane.AttackPortSwap)
	if err != nil {
		t.Fatal(err)
	}
	if err := atk.Apply(net); err != nil {
		t.Fatal(err)
	}
	run(attacked)
	return top, f, slices, windows
}

// missingSets is every single switch plus a few pairs: adjacent
// switches (rows lost on both sides of a link) and distant ones.
func missingSets(top *topo.Topology) [][]topo.SwitchID {
	var sets [][]topo.SwitchID
	sws := top.Switches()
	for _, s := range sws {
		sets = append(sets, []topo.SwitchID{s.ID})
	}
	first := sws[0].ID
	if nbrs := top.Neighbors(first); len(nbrs) > 0 {
		sets = append(sets, []topo.SwitchID{first, nbrs[0]})
	}
	sets = append(sets,
		[]topo.SwitchID{first, sws[len(sws)-1].ID},
		[]topo.SwitchID{sws[len(sws)/2].ID, sws[len(sws)/3].ID})
	return sets
}

// TestDetectMissingMatchesColdOracle pins the prepared missing path to
// the cold derivation it replaced: on a fresh fabric the prepared slice
// engines factor exactly what the cold path re-derives, so every
// outcome — and every error — is byte-identical.
func TestDetectMissingMatchesColdOracle(t *testing.T) {
	for _, mode := range []controller.PolicyMode{controller.PairExact, controller.DestAggregate} {
		top, f, slices, windows := lossyWindows(t, mode, 9, 2, 2)
		sd, err := NewSlicedDetector(slices, f.NumRules(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		flagged := 0
		for w, counters := range windows {
			y := f.CounterVector(counters)
			for _, missing := range missingSets(top) {
				got, gotErr := sd.DetectMissing(f, y, missing, Options{})
				want, wantErr := ColdSlicedWithMissing(f, slices, counters, missing, Options{})
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("mode %v window %d missing %v: error %v, oracle %v", mode, w, missing, gotErr, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("mode %v window %d missing %v: outcome differs from the cold oracle", mode, w, missing)
				}
				if got.Anomalous {
					flagged++
				}
			}
		}
		if flagged == 0 {
			t.Fatalf("mode %v: no missing-switch window was flagged; the attack windows exercise nothing", mode)
		}
	}
}

// SameVerdicts requires equal verdicts and Suspects and indices within
// tol relative (equal when infinite). It is exported for the external
// churn-backed tests.
func SameVerdicts(t *testing.T, label string, got, want SlicedOutcome, tol float64) {
	t.Helper()
	if got.Anomalous != want.Anomalous || !reflect.DeepEqual(got.Suspects, want.Suspects) || len(got.PerSwitch) != len(want.PerSwitch) {
		t.Fatalf("%s: verdict %v suspects %v (%d slices), want %v %v (%d slices)", label,
			got.Anomalous, got.Suspects, len(got.PerSwitch), want.Anomalous, want.Suspects, len(want.PerSwitch))
	}
	for i, g := range got.PerSwitch {
		w := want.PerSwitch[i]
		if g.Switch != w.Switch || g.Result.Anomalous != w.Result.Anomalous {
			t.Fatalf("%s: slice %d is switch %d anomalous=%v, want switch %d anomalous=%v", label, i,
				g.Switch, g.Result.Anomalous, w.Switch, w.Result.Anomalous)
		}
		a, b := g.Result.Index, w.Result.Index
		if a == b {
			continue
		}
		if math.IsInf(a, 0) || math.IsInf(b, 0) || math.Abs(a-b) > tol*math.Max(math.Abs(a), math.Abs(b)) {
			t.Fatalf("%s: switch %d index %v, want %v (tolerance %g relative)", label, g.Switch, a, b, tol)
		}
	}
}

// TestSparseSliceEnginesMatchDense checks that Gram density alone picks
// each slice's factor: on a pair-exact FatTree(4) every slice Gram is
// diagonal, so every slice is sparse-backed, and the sparse solves
// reproduce the dense engines' outcomes byte for byte. Dest-aggregate
// slices may pick either backend; their verdicts and Suspects must
// agree and their indices to 1e-12 relative.
func TestSparseSliceEnginesMatchDense(t *testing.T) {
	for _, mode := range []controller.PolicyMode{controller.PairExact, controller.DestAggregate} {
		_, f, slices, windows := lossyWindows(t, mode, 5, 4, 4)
		auto, err := NewSlicedDetector(slices, f.NumRules(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		prev := matrix.SetKernelDefaults(matrix.KernelOptions{Sparse: matrix.SparseNever})
		dense, err := NewSlicedDetector(slices, f.NumRules(), Options{})
		matrix.SetKernelDefaults(prev)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range dense.engines {
			if e.Prepared().SparseBacked() {
				t.Fatalf("mode %v: slice %d sparse-backed under SparseNever", mode, i)
			}
		}
		if mode == controller.PairExact {
			for i, e := range auto.engines {
				if !e.Prepared().SparseBacked() {
					t.Fatalf("pair-exact slice %d (%d cols, Gram density %g) is dense-backed", i,
						slices[i].H.Cols(), slices[i].H.SymGram().Density())
				}
			}
		}
		flagged := 0
		for w, counters := range windows {
			y := f.CounterVector(counters)
			got, err := auto.Detect(y)
			if err != nil {
				t.Fatal(err)
			}
			want, err := dense.Detect(y)
			if err != nil {
				t.Fatal(err)
			}
			if want.Anomalous {
				flagged++
			}
			label := fmt.Sprintf("mode %v window %d", mode, w)
			if mode == controller.PairExact {
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: sparse slice engines differ from dense", label)
				}
				continue
			}
			SameVerdicts(t, label, got, want, 1e-12)
		}
		if flagged == 0 {
			t.Fatalf("mode %v: no window was flagged; the attack windows exercise nothing", mode)
		}
	}
}

func TestMonitorClampsNegativeConfig(t *testing.T) {
	// Negative values used to slip past the zero-only default checks:
	// a negative threshold always fires, a negative consecutive alerts
	// without debouncing, a negative alpha diverges the EWMA.
	m := NewMonitor(MonitorConfig{Threshold: -3, Consecutive: -1, EWMAAlpha: -0.5})
	if m.cfg.Threshold != 4.5 || m.cfg.Consecutive != 2 || m.cfg.EWMAAlpha != 0.3 {
		t.Fatalf("negative config not clamped: %+v", m.cfg)
	}
	if v := m.Feed(1); v.Exceeded || v.Alert {
		t.Fatalf("quiet index must not fire: %+v", v)
	}
	// Alpha above 1 clamps to plain averaging instead of oscillating.
	m = NewMonitor(MonitorConfig{EWMAAlpha: 2.5})
	if m.cfg.EWMAAlpha != 1 {
		t.Fatalf("alpha > 1 not clamped: %v", m.cfg.EWMAAlpha)
	}
	m.Feed(10)
	if v := m.Feed(4); v.EWMA != 4 {
		t.Fatalf("alpha=1 must track the latest index, EWMA=%v", v.EWMA)
	}
}
