package main

import (
	"bytes"
	"io"
	"math"
	"path/filepath"
	"testing"

	"foces"
)

// smallPool generates a FatTree(4) input pool, fast enough for tests.
func smallPool(t *testing.T, wl workload, seed int64) (*fabric, *pool) {
	t.Helper()
	fab, err := newFabric(4, 40, seed)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := foces.NewSystemWithPairs(fab.top, fab.pairs)
	if err != nil {
		t.Fatal(err)
	}
	fab.index(twin)
	p, err := generatePool(twin, fab, wl, seed)
	if err != nil {
		t.Fatal(err)
	}
	return fab, p
}

func TestSnapshotDigestFollowsSeed(t *testing.T) {
	wl, _ := findWorkload("steady")
	f1, p1 := smallPool(t, wl, 1)
	f1b, p1b := smallPool(t, wl, 1)
	f2, p2 := smallPool(t, wl, 2)
	if p1.digest(f1) != p1b.digest(f1b) {
		t.Fatal("the same seed gave different snapshot digests")
	}
	if p1.digest(f1) == p2.digest(f2) {
		t.Fatal("different seeds gave the same snapshot digest")
	}
}

func TestSupportedTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{10000, 0.99}, {1000, 0.99}, {999, 0.95}, {200, 0.95}, {199, 0.9}, {20, 0.5}, {19, 0},
	} {
		if got := supportedTail(tc.n, 0.99); got != tc.want {
			t.Errorf("supportedTail(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if p := tc.want; p > 0 {
			if beyond := tc.n - 1 - rank(p, tc.n); beyond < minBeyond {
				t.Errorf("n=%d p=%v leaves %d samples beyond", tc.n, p, beyond)
			}
		}
	}
}

func TestPercentileCountsFailuresAsInf(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i % 100)
	}
	for i := 0; i < 11; i++ {
		xs[i*7] = posInf
	}
	v, p := tail(xs, 0.99)
	if p != 0.99 || !math.IsInf(v, 1) {
		t.Fatalf("p99 with 11 failures in 1000 = %v at p%v, want +Inf at p99", v, p)
	}
	if m := percentile(xs, 0.5); math.IsInf(m, 0) {
		t.Fatalf("median with 11 failures in 1000 = %v, want finite", m)
	}
}

// TestTracedConsumerMatchesServe runs a short FatTree(4) stream of each
// workload with the traced phase on: every verdict, from Serve and from
// the traced consumer, must equal the lock-step reference, and on the
// workloads without scheduled rule updates each clean-path traced
// verdict must equal Serve's last verdict for the same input interval
// byte for byte (no update probe runs after the last Serve segment).
func TestTracedConsumerMatchesServe(t *testing.T) {
	for _, wl := range workloads {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			wl.rate = 200
			cfg := defaultConfig(wl, 3, 1.5)
			cfg.K, cfg.Flows, cfg.MinOpen = 4, 60, 100
			cfg.Trace = true
			cfg.TracePath = filepath.Join(t.TempDir(), "trace.jsonl")
			var log bytes.Buffer
			res, st, err := runStream(cfg, &log)
			if err != nil {
				t.Fatalf("%v\n%s", err, log.String())
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("run incorrect: %d of %d windows failed\n%s", res.Failed, res.Attempted, log.String())
			}
			served := map[int][]byte{}
			traced, compared := 0, 0
			for i := 1; i < st.next; i++ {
				rec := &st.recs[i]
				rep := rec.report
				switch {
				case wl.churn || !bytes.Contains(rep, []byte(`"path":"clean"`)):
				case rec.phase == phaseOpen || rec.phase == phaseSaturated:
					served[rec.ev.j] = rep
				case rec.phase == phaseTraced:
					if want, ok := served[rec.ev.j]; ok {
						compared++
						if !bytes.Equal(rep, want) {
							t.Fatalf("window %d (interval %d): traced verdict differs from Serve's\n traced: %s\n served: %s", i, rec.ev.j, rep, want)
						}
					}
				}
				if rec.phase == phaseTraced {
					traced++
				}
			}
			if !wl.churn && compared < cfg.MinOpen/2 {
				t.Fatalf("compared %d traced verdicts with Serve's, want at least %d", compared, cfg.MinOpen/2)
			}
			if traced < cfg.MinOpen {
				t.Fatalf("traced phase offered %d windows, want at least %d", traced, cfg.MinOpen)
			}
		})
	}
}

func TestRunRejectsShortOpenLoop(t *testing.T) {
	wl, _ := findWorkload("quiet")
	if _, _, err := runStream(defaultConfig(wl, 1, 1), io.Discard); err == nil {
		t.Fatal("a run too short for 1000 open-loop verdicts was accepted")
	}
}
