package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"foces"
)

// phase tags each offered window with the part of the run it belongs
// to.
type phase uint8

const (
	phaseWarm phase = iota
	phaseOpen
	phaseSaturated
	phaseTraced
)

// windowRec is one offered window: what the generator did before
// pushing it, and what came back. The generator writes the first group
// before its pushes; the consumer writes the second after the window's
// verdict (the assembler's mutex and the report channel order the two).
type windowRec struct {
	ev    event
	epoch uint64 // assembler epoch the window was pushed under
	rule  int    // phantom rule ID after the window's update
	// probeFrom and probes number the update-probe rounds run on the
	// idle system just before this window (see probe).
	probeFrom, probes int
	phase             phase
	due               time.Time // open loop: when the window was due
	late              time.Duration

	recv    time.Time // when the verdict reached the consumer
	report  []byte    // canonical report JSON with timings zeroed
	flagged bool      // the network-wide (Algorithm 1) verdict
	sliced  bool      // the sliced engine flagged some switch
	batched int
	err     error
}

// stream drives one System through a WindowAssembler: the calling
// goroutine is the generator, and a consumer goroutine receives
// verdicts (from System.Serve, or from the traced consumer).
type stream struct {
	fab  *fabric
	pool *pool
	wl   workload
	sys  *foces.System
	asm  *foces.WindowAssembler

	recs  []windowRec
	next  int      // index of the next window to push; window i is assembler seq i+1
	cum   []uint64 // cumulative counter of every baseline rule
	ph    phantom
	epoch uint64

	// updates holds the wall time of every rule-update call, scheduled
	// or probed.
	updates []time.Duration
	// probePh is the probe's phantom rule, probeRounds counts the probe
	// rounds run so far, and pendingProbes those not yet followed by a
	// window.
	probePh       phantom
	probeRounds   int
	pendingProbes int
	// tr is non-nil while the traced consumer runs; the generator then
	// records a span around every Push.
	tr *tracer

	mu       sync.Mutex
	cond     *sync.Cond
	received int // verdicts received (windows 1..received)
	quit     chan struct{}
	ticking  sync.WaitGroup
}

// windowBuffer sizes the assembler's completed-window channel. The
// default (16) drops windows after a stall of 16 window periods, which
// a busy shared host can cause; the benchmark sizes it so that a stall
// shows as latency, and still counts any dropped window as failed.
const windowBuffer = 1024

// stallTimeout bounds how long the generator waits without any new
// verdict before it gives up on the run.
const stallTimeout = 20 * time.Second

func newStream(fab *fabric, p *pool, wl workload, sys *foces.System, capacity int) *stream {
	s := &stream{
		fab:   fab,
		pool:  p,
		wl:    wl,
		sys:   sys,
		recs:  make([]windowRec, capacity),
		cum:   make([]uint64, fab.ruleSpace),
		epoch: sys.Epoch(),
	}
	s.cond = sync.NewCond(&s.mu)
	s.asm = foces.NewWindowAssembler(fab.switches, foces.AssemblerConfig{
		WindowBuffer: windowBuffer,
		RuleSpace:    sys.FCM().NumRules(),
	})
	s.asm.SetEpoch(s.epoch)
	// A dropped window never yields a verdict, so a waiting generator
	// is also woken on a timer to notice drops and stalls.
	s.quit = make(chan struct{})
	s.ticking.Add(1)
	go func() {
		defer s.ticking.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-t.C:
				s.mu.Lock()
				s.cond.Broadcast()
				s.mu.Unlock()
			}
		}
	}()
	return s
}

// close closes the assembler and stops the wake-up timer.
func (s *stream) close() {
	s.asm.Close()
	close(s.quit)
	s.ticking.Wait()
}

// markReceived counts one verdict and wakes a waiting generator.
func (s *stream) markReceived() {
	s.mu.Lock()
	s.received++
	s.cond.Broadcast()
	s.mu.Unlock()
}

// waitReceived blocks until windows 1..n each have a verdict or were
// dropped by the assembler. It fails when no verdict arrives for
// stallTimeout, so a lost window cannot hang the run.
func (s *stream) waitReceived(n int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	last, since := s.received, time.Now()
	for s.received < n {
		if s.received+int(s.asm.Stats().DroppedWindows) >= n {
			return nil
		}
		if s.received != last {
			last, since = s.received, time.Now()
		} else if time.Since(since) > stallTimeout {
			return fmt.Errorf("no verdict for %v: %d of %d windows answered", stallTimeout, s.received, n)
		}
		s.cond.Wait()
	}
	return nil
}

// prepare advances the cumulative counters by window i's interval and
// cuts them into fresh per-switch snapshot maps (nil for a silent
// switch): Push takes ownership of each map.
func (s *stream) prepare(i int) (event, []map[int]uint64) {
	ev := schedule(s.wl, s.fab, i)
	if i > 0 {
		row := s.pool.deltas[ev.j]
		for r, v := range row {
			s.cum[r] += v
		}
		if ev.reset >= 0 {
			// The switch restarted: its counters hold only this
			// interval's traffic.
			for _, r := range s.fab.rulesBySwitch[ev.reset] {
				s.cum[r] = row[r]
			}
		}
	}
	snaps := make([]map[int]uint64, len(s.fab.switches))
	for k, rules := range s.fab.rulesBySwitch {
		if k == ev.silent {
			continue
		}
		m := make(map[int]uint64, len(rules)+1)
		for _, r := range rules {
			m[r] = s.cum[r]
		}
		if s.ph.installed && s.ph.sw == k {
			m[s.ph.rule.ID] = 0
		}
		snaps[k] = m
	}
	return ev, snaps
}

// applyUpdate performs window i's scheduled rule update once every
// earlier window has its verdict, so each window's dispatch path is
// fixed by the schedule and not by timing, then moves the assembler to
// the new epoch and patches the window's snapshots.
func (s *stream) applyUpdate(i int, ev event, snaps []map[int]uint64) error {
	if err := s.waitReceived(i - 1); err != nil {
		return err
	}
	t0 := time.Now()
	if err := applyOp(s.sys, s.fab, &s.ph, ev.op, (i-1)/poolSize); err != nil {
		return err
	}
	s.updates = append(s.updates, time.Since(t0))
	s.epoch = s.sys.Epoch()
	s.asm.SetEpoch(s.epoch)
	if m := snaps[s.ph.sw]; m != nil {
		if s.ph.installed {
			m[s.ph.rule.ID] = 0
		} else {
			delete(m, s.ph.rule.ID)
		}
	}
	return nil
}

// push offers window i: a silent switch is marked missing (and its
// baseline forgotten, as after a failed poll), every other switch
// pushes its snapshot.
func (s *stream) push(i int, ev event, snaps []map[int]uint64) error {
	if ev.silent >= 0 {
		sw := s.fab.switches[ev.silent]
		s.asm.Forget(sw)
		s.asm.MarkMissing(sw)
	}
	for k, m := range snaps {
		if m == nil {
			continue
		}
		u := foces.StreamUpdate{Switch: s.fab.switches[k], Counters: m}
		if s.tr == nil {
			if err := s.asm.Push(u); err != nil {
				return err
			}
			continue
		}
		t0 := time.Now()
		err := s.asm.Push(u)
		s.tr.push(uint64(i+1), t0, time.Now())
		if err != nil {
			return err
		}
	}
	return nil
}

// offer runs window i's update (if any), records it and pushes it.
func (s *stream) offer(i int, ev event, snaps []map[int]uint64, ph phase, due time.Time) error {
	var late time.Duration
	if !due.IsZero() {
		late = time.Since(due)
	}
	if ev.op != opNone {
		if err := s.applyUpdate(i, ev, snaps); err != nil {
			return fmt.Errorf("window %d: %v update: %w", i, ev.op, err)
		}
	}
	rec := &s.recs[i]
	rec.ev, rec.epoch, rec.rule, rec.phase, rec.due, rec.late = ev, s.epoch, s.ph.rule.ID, ph, due, late
	rec.probeFrom, rec.probes = s.probeRounds-s.pendingProbes, s.pendingProbes
	s.pendingProbes = 0
	if err := s.push(i, ev, snaps); err != nil {
		return fmt.Errorf("window %d: %w", i, err)
	}
	s.next++
	return nil
}

// probeOps is one round of the update probe.
var probeOps = []ruleOp{opAdd, opModify, opRemove}

// probe runs rounds of the phantom rule add/modify/remove cycle through
// the system's public API once every offered window has its verdict,
// timing each call, and moves the assembler to the new epoch. The next
// window straddles the updates and takes the reconciled path, as after
// a scheduled update. Workloads without scheduled updates measure
// update_ms_p50 this way, spread across the run.
func (s *stream) probe(rounds int) error {
	if err := s.waitReceived(s.next - 1); err != nil {
		return err
	}
	for r := 0; r < rounds; r++ {
		for _, op := range probeOps {
			t0 := time.Now()
			if err := applyOp(s.sys, s.fab, &s.probePh, op, s.probeRounds); err != nil {
				return fmt.Errorf("update probe: %w", err)
			}
			s.updates = append(s.updates, time.Since(t0))
		}
		s.probeRounds++
		s.pendingProbes++
	}
	s.epoch = s.sys.Epoch()
	s.asm.SetEpoch(s.epoch)
	return nil
}

// prime pushes window 0, which only establishes every switch's
// baseline and yields no verdict.
func (s *stream) prime() error {
	ev, snaps := s.prepare(0)
	return s.offer(0, ev, snaps, phaseWarm, time.Time{})
}

// openLoop offers n windows at a fixed rate, each due at its slot
// regardless of how far detection has fallen behind, then waits for
// every verdict.
func (s *stream) openLoop(n int, rate float64, ph phase) error {
	period := float64(time.Second) / rate
	start := time.Now().Add(2 * time.Millisecond)
	for k := 0; k < n && s.next < len(s.recs); k++ {
		i := s.next
		ev, snaps := s.prepare(i)
		due := start.Add(time.Duration(float64(k) * period))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if err := s.offer(i, ev, snaps, ph, due); err != nil {
			return err
		}
	}
	return s.waitReceived(s.next - 1)
}

// closedLoop offers windows with at most outstanding of them awaiting
// a verdict, until count windows were offered or the deadline (if set)
// passed, then waits for every verdict. It returns the number offered.
func (s *stream) closedLoop(count int, deadline time.Time, ph phase) (int, error) {
	first := s.next
	for s.next-first < count && s.next < len(s.recs) {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			break
		}
		i := s.next
		ev, snaps := s.prepare(i)
		if err := s.waitReceived(i - outstanding); err != nil {
			return s.next - first, err
		}
		if err := s.offer(i, ev, snaps, ph, time.Time{}); err != nil {
			return s.next - first, err
		}
	}
	return s.next - first, s.waitReceived(s.next - 1)
}

// serve starts System.Serve on the assembler and a consumer that
// records every verdict. Stop it with the returned function, which
// cancels Serve and waits for both goroutines.
func (s *stream) serve() (stop func(), err error) {
	ctx, cancel := context.WithCancel(context.Background())
	reports, err := s.sys.Serve(ctx, foces.StreamConfig{Windows: s.asm.Windows()})
	if err != nil {
		cancel()
		return nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var buf []byte
		for sr := range reports {
			buf = s.record(sr.Window, sr.Report, sr.Batched, sr.Err, buf)
			s.markReceived()
		}
	}()
	return func() {
		cancel()
		<-done
	}, nil
}

// record stores one verdict on its window's record: the canonical
// report bytes with timings zeroed, which the reference check compares
// byte for byte.
func (s *stream) record(seq uint64, rep foces.Report, batched int, runErr error, buf []byte) []byte {
	now := time.Now()
	i := int(seq) - 1
	if i < 1 || i >= len(s.recs) {
		return buf
	}
	rec := &s.recs[i]
	rec.recv = now
	rec.batched = batched
	if runErr != nil {
		rec.err = runErr
		return buf
	}
	rep.Timings = foces.RunTimings{}
	out, err := rep.AppendJSON(buf[:0])
	if err != nil {
		rec.err = err
		return buf
	}
	rec.report = append([]byte(nil), out...)
	rec.flagged = (rep.Full != nil && rep.Full.Anomalous) || (rep.Partial != nil && rep.Partial.Result.Anomalous)
	rec.sliced = rep.Sliced != nil && rep.Sliced.Anomalous
	return out
}

// observation converts a completed window into the Observation
// System.Serve would build: no missing switches selects the clean
// path, and a straddling window is dated by its oldest baseline epoch.
func observation(w foces.StreamWindow) foces.Observation {
	missing := w.Missing
	if len(missing) == 0 {
		missing = nil
	}
	epoch := w.Epoch
	for _, from := range w.Straddled {
		if from < epoch {
			epoch = from
		}
	}
	return foces.Observation{
		Counters:   w.Deltas,
		RunOptions: foces.RunOptions{Missing: missing, Epoch: epoch},
	}
}
