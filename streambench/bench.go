package main

import (
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"time"

	"foces"
)

// Config is one benchmark run.
type Config struct {
	Workload workload
	Seed     int64
	Seconds  float64 // measured time: openShare open loop, the rest saturated
	Trace    bool

	K     int // fat-tree arity
	Flows int // PairExact flows
	// MinOpen is the fewest open-loop verdicts a run accepts, so the
	// 99th percentile has at least ten samples beyond it.
	MinOpen int

	TracePath string
	Env       *envInfo
}

const (
	// openShare is the share of the measured seconds spent in the open
	// loop; the saturated closed loop gets the rest.
	openShare = 0.8
	// segments is how many alternating open-loop and saturated segments
	// the measured seconds are cut into.
	segments = 5
	// probeRounds is how many update-probe rounds run between segments
	// on workloads without scheduled rule updates.
	probeRounds = 4
	// outstanding bounds the windows awaiting a verdict in the closed
	// loop, so Serve sees a backlog it can batch.
	outstanding = 8
	// batchMax is the traced consumer's RunBatch group bound, Serve's
	// default.
	batchMax = 8
)

func defaultConfig(wl workload, seed int64, seconds float64) Config {
	return Config{
		Workload: wl,
		Seed:     seed,
		Seconds:  seconds,
		K:        8,
		Flows:    defaultFlows,
		MinOpen:  1000,
	}
}

// Result is one run's outcome.
type Result struct {
	Correct   bool
	Attempted int
	Failed    int
	EndToEnd  []namedMetric
	PerLayer  []namedMetric
	Digest    string // input snapshot digest
	Dominant  string // layer with the largest traced share
	// VerdictTail is the open loop's highest supported percentile (99th
	// from 1,000 verdicts on) and its latency. It is reported beside the
	// metrics, not as one: on a shared host its run-to-run spread is
	// wider than any bound the benchmark may set.
	VerdictTail map[string]float64
}

// runStream executes one benchmark run, logs a readable summary to logw
// and returns the result with the stream that holds every window's
// record.
func runStream(cfg Config, logw io.Writer) (*Result, *stream, error) {
	wl := cfg.Workload
	nOpen := int(wl.rate * cfg.Seconds * openShare)
	if nOpen < cfg.MinOpen {
		return nil, nil, fmt.Errorf("%.0f s at %.0f windows/s gives %d open-loop windows, fewer than %d", cfg.Seconds, wl.rate, nOpen, cfg.MinOpen)
	}
	satFor := time.Duration(cfg.Seconds * (1 - openShare) * float64(time.Second))

	fab, err := newFabric(cfg.K, cfg.Flows, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	var setups []float64
	build := func() (*foces.System, error) {
		t0 := time.Now()
		sys, err := foces.NewSystemWithPairs(fab.top, fab.pairs)
		setups = append(setups, time.Since(t0).Seconds())
		return sys, err
	}
	twin, err := build()
	if err != nil {
		return nil, nil, err
	}
	fab.index(twin)
	t0 := time.Now()
	p, err := generatePool(twin, fab, wl, cfg.Seed)
	if err != nil {
		return nil, nil, fmt.Errorf("generate inputs: %w", err)
	}
	genSetup := time.Since(t0).Seconds()
	sys, err := build()
	if err != nil {
		return nil, nil, err
	}
	if got := sys.Controller().RuleSpace(); got != fab.ruleSpace {
		return nil, nil, fmt.Errorf("system has %d rules, generator twin %d", got, fab.ruleSpace)
	}
	digest := p.digest(fab)
	if cfg.Env != nil {
		cfg.Env.Fabric = fmt.Sprintf("fattree%d/%d flows/%d rules/%d switches", cfg.K, cfg.Flows, fab.ruleSpace, len(fab.switches))
	}

	// Room for every window the run can offer: the saturated phase is
	// cut short if it would exceed 4000 windows/s.
	satMax := int(satFor.Seconds() * 4000)
	capacity := 2 + poolSize + int(wl.rate) + 2*nOpen + satMax
	s := newStream(fab, p, wl, sys, capacity)
	stopServe, err := s.serve()
	if err != nil {
		return nil, nil, err
	}
	runtime.GC()
	heap := watchHeap(5 * time.Millisecond)
	setupDone := time.Now()

	// Warm-up, unmeasured: one schedule cycle in a closed loop, then one
	// second of the open loop, so pools, caches and the GC pacer settle.
	if err := s.prime(); err != nil {
		return nil, nil, err
	}
	if _, err := s.closedLoop(poolSize, time.Time{}, phaseWarm); err != nil {
		return nil, nil, err
	}
	if err := s.openLoop(int(wl.rate), wl.rate, phaseWarm); err != nil {
		return nil, nil, err
	}
	// The measured phases alternate: each of the segments runs its share
	// of the open loop, then its share of the saturated closed loop. The
	// saturated figures are medians over segments, so a burst of host
	// noise moves one segment and not the result.
	var rates, cpus, allocs, heaps []float64
	nSat := 0
	for k := 0; k < segments; k++ {
		heap.take()
		if err := s.openLoop(nOpen/segments, wl.rate, phaseOpen); err != nil {
			return nil, nil, err
		}
		cpu0, allocs0, start := cpuTime(), readMetric(metricAllocs), time.Now()
		n, err := s.closedLoop(satMax/segments, start.Add(satFor/segments), phaseSaturated)
		if err != nil {
			return nil, nil, err
		}
		elapsed := time.Since(start)
		cpu1, allocs1 := cpuTime(), readMetric(metricAllocs)
		nSat += n
		rates = append(rates, float64(n)/elapsed.Seconds())
		cpus = append(cpus, float64(cpu1-cpu0)/1e6/float64(n))
		allocs = append(allocs, float64(allocs1-allocs0)/float64(n))
		heaps = append(heaps, float64(heap.take())/(1<<20))
		if !wl.churn && k < segments-1 {
			if err := s.probe(probeRounds); err != nil {
				return nil, nil, err
			}
		}
	}
	heap.close()
	stopServe()
	phasesDone := time.Now()

	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
		s.tr = tr
		stopTraced := s.serveTraced()
		err := s.openLoop(nOpen, wl.rate, phaseTraced)
		stopTraced()
		s.tr = nil
		if err != nil {
			return nil, nil, err
		}
	}
	s.close()
	churnRun := sys.ChurnStats()
	tracedDone := time.Now()

	ref, err := build()
	if err != nil {
		return nil, nil, err
	}
	chk, err := verify(s, ref)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(logw, "streambench: phases %.1fs, traced phase %.1fs, reference check %.1fs\n",
		phasesDone.Sub(setupDone).Seconds(), tracedDone.Sub(phasesDone).Seconds(), time.Since(tracedDone).Seconds())

	updates := s.updates
	res := &Result{
		Correct:   chk.failed == 0,
		Attempted: chk.offered,
		Failed:    chk.failed,
		Digest:    hex.EncodeToString(digest[:]),
	}
	if chk.first != "" {
		fmt.Fprintf(logw, "streambench: %d of %d windows failed (%d mismatches); first: %s\n", chk.failed, chk.offered, chk.mismatches, chk.first)
	}

	// End-to-end metrics.
	open := latencies(s, phaseOpen)
	p50 := percentile(open, 0.5)
	p99, pTail := tail(open, 0.99)
	recall, specificity, slicedFalse := detection(s)
	asmStats := s.asm.Stats()
	res.EndToEnd = []namedMetric{
		{"setup_s", "s", median(setups)},
		{"verdict_p50_ms", "ms", p50},
		{"windows_per_s", "1/s", median(rates)},
		{"cpu_ms_per_window", "ms", median(cpus)},
		{"allocs_per_window", "count", median(allocs)},
		{"heap_peak_mb", "MB", median(heaps)},
		{"window_success_ratio", "ratio", 1 - float64(chk.failed)/float64(chk.offered)},
		{"detect_recall", "ratio", recall},
		{"specificity", "ratio", specificity},
		{"update_ms_p50", "ms", median(msOf(updates))},
	}
	res.VerdictTail = map[string]float64{"percentile": pTail, "verdict_ms": finite(p99)}
	var segP50 []float64
	for k := 0; k < segments; k++ {
		segP50 = append(segP50, percentile(open[k*len(open)/segments:(k+1)*len(open)/segments], 0.5))
	}
	fmt.Fprintf(logw, "streambench: per segment: windows/s %.0f, cpu ms/window %.2f, verdict p50 ms %.2f\n", rates, cpus, segP50)
	fmt.Fprintf(logw, "streambench %s seed %d: %d open-loop windows at %.0f/s, latency ms p50 %.2f p90 %.2f p%.1f %.2f max %.2f, generator late p99 %.2f ms; %d saturated windows in %.2fs; %d offered, %d failed\n%s",
		wl.name, cfg.Seed, len(open), wl.rate, p50, percentile(open, 0.9), 100*pTail, p99, percentile(open, 1),
		percentile(lateness(s, phaseOpen), 0.99), nSat, satFor.Seconds(), chk.offered, chk.failed, summary(res.EndToEnd))

	if !cfg.Trace {
		return res, s, nil
	}

	// Per-layer metrics from the traced phase and the run's counters.
	layers, err := setupLayers(ref, fab, 3)
	if err != nil {
		return nil, nil, err
	}
	spans := tr.all()
	traced := latencies(s, phaseTraced)
	shares := layerShares(spans)
	res.Dominant = dominant(shares)
	us := func(name, path string, p float64) float64 {
		return percentile(durations(spans, name, path), p) / 1e3
	}
	msp := func(name, path string, p float64) float64 { return us(name, path, p) / 1e3 }
	pushTail, _ := tail(durations(spans, "collector.push", ""), 0.99)
	runTail, _ := tail(durations(spans, "foces.run", ""), 0.99)
	medTail, _ := tail(durations(spans, "stats.median", ""), 0.99)
	lateTail, _ := tail(lateness(s, phaseOpen), 0.99)
	reused, refactored := churnRun.SlicesReused, churnRun.SlicesRefactored
	reuse := 0.0
	if n := reused + churnRun.SlicesUpdated + refactored; n > 0 {
		reuse = float64(reused) / float64(n)
	}
	res.PerLayer = []namedMetric{
		{"collector.push_us_p50", "us", us("collector.push", "", 0.5)},
		{"collector.push_us_p99", "us", pushTail / 1e3},
		{"collector.assemble_ms_p50", "ms", msp("collector.assemble", "", 0.5)},
		{"collector.max_queue_depth", "count", float64(asmStats.MaxQueueDepth)},
		{"collector.coalesced", "count", float64(asmStats.Coalesced)},
		{"collector.dropped_windows", "count", float64(asmStats.DroppedWindows)},
		{"foces.vectorize_us_p50", "us", us("foces.vectorize", "", 0.5)},
		{"foces.emit_us_p50", "us", us("foces.emit", "", 0.5)},
		{"foces.run_clean_ms_p50", "ms", msp("foces.run", foces.PathClean, 0.5)},
		{"foces.run_missing_ms_p50", "ms", msp("foces.run", foces.PathMissing, 0.5)},
		{"foces.run_reconciled_ms_p50", "ms", msp("foces.run", foces.PathReconciled, 0.5)},
		{"foces.run_ms_p99", "ms", runTail / 1e6},
		{"foces.batch_width_mean", "count", batchWidth(s, phaseSaturated)},
		{"core.full_ms_p50", "ms", msp("core.full", "", 0.5)},
		{"core.sliced_ms_p50", "ms", msp("core.sliced", "", 0.5)},
		{"core.sliced_false_alarm_ratio", "ratio", slicedFalse},
		{"core.prepare_ms", "ms", layers["core.prepare_ms"]},
		{"matrix.solve_us_p50", "us", us("matrix.solve", "", 0.5)},
		{"stats.median_us_p50", "us", us("stats.median", "", 0.5)},
		{"stats.median_us_p99", "us", medTail / 1e3},
		{"churn.apply_ms_p50", "ms", median(msOf(updates))},
		{"churn.slices_reused", "count", float64(reused)},
		{"churn.slices_updated", "count", float64(churnRun.SlicesUpdated)},
		{"churn.slices_refactored", "count", float64(refactored)},
		{"churn.full_rebuilds", "count", float64(churnRun.FullRebuilds)},
		{"churn.reuse_ratio", "ratio", reuse},
		{"topo.build_ms", "ms", layers["topo.build_ms"]},
		{"controller.rules_ms", "ms", layers["controller.rules_ms"]},
		{"fcm.generate_ms", "ms", layers["fcm.generate_ms"]},
		{"gen.late_ms_p99", "ms", lateTail},
		{"gen.setup_s", "s", genSetup},
		{"trace.overhead_ratio", "ratio", percentile(traced, 0.5) / p50},
		{"share.collector_pct", "%", shares["collector"]},
		{"share.foces_pct", "%", shares["foces"]},
		{"share.core_pct", "%", shares["core"]},
		{"share.matrix_pct", "%", shares["matrix"]},
		{"share.stats_pct", "%", shares["stats"]},
	}
	fmt.Fprintf(logw, "traced: %d windows, %d spans, verdict p50 %.3f ms traced vs %.3f ms untraced; dominant layer on clean windows: %s\n%s",
		len(traced), len(spans), percentile(traced, 0.5), p50, res.Dominant, summary(res.PerLayer))
	header := map[string]any{"env": cfg.Env, "digest": res.Digest, "dominant_layer": res.Dominant, "shares_pct": shares}
	if err := writeTrace(cfg.TracePath, header, spans); err != nil {
		return nil, nil, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(logw, "trace written to %s\n", cfg.TracePath)
	return res, s, nil
}

// latencies returns the phase's verdict latencies in milliseconds,
// timed from each window's due time; a window without a verdict counts
// as +Inf.
func latencies(s *stream, ph phase) []float64 {
	var out []float64
	for i := 1; i < s.next; i++ {
		rec := &s.recs[i]
		if rec.phase != ph {
			continue
		}
		if rec.report == nil || rec.err != nil {
			out = append(out, posInf)
			continue
		}
		out = append(out, float64(rec.recv.Sub(rec.due))/1e6)
	}
	return out
}

// lateness returns how late the generator started each of the phase's
// windows, in milliseconds.
func lateness(s *stream, ph phase) []float64 {
	var out []float64
	for i := 1; i < s.next; i++ {
		if s.recs[i].phase == ph {
			out = append(out, float64(s.recs[i].late)/1e6)
		}
	}
	return out
}

// detection scores the measured windows' network-wide (Algorithm 1)
// verdicts against the ground truth: recall over attacked windows,
// specificity over clean ones; a window without a verdict counts as a
// miss in both. It also returns the share of clean windows on which the
// sliced engine flagged some switch.
func detection(s *stream) (recall, specificity, slicedFalse float64) {
	var attacked, caught, clean, passed, slicedFlagged int
	for i := 1; i < s.next; i++ {
		rec := &s.recs[i]
		if rec.phase == phaseWarm {
			continue
		}
		ok := rec.report != nil && rec.err == nil
		if s.pool.attacked[rec.ev.j] {
			attacked++
			if ok && rec.flagged {
				caught++
			}
			continue
		}
		clean++
		if ok && !rec.flagged {
			passed++
		}
		if ok && rec.sliced {
			slicedFlagged++
		}
	}
	return ratio(caught, attacked), ratio(passed, clean), ratio(slicedFlagged, clean)
}

// batchWidth is the mean RunBatch group size over the phase's verdicts.
func batchWidth(s *stream, ph phase) float64 {
	var ws []float64
	for i := 1; i < s.next; i++ {
		if s.recs[i].phase == ph && s.recs[i].batched > 0 {
			ws = append(ws, float64(s.recs[i].batched))
		}
	}
	return mean(ws)
}

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
