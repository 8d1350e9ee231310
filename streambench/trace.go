package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"

	"foces"
	"foces/internal/stats"
)

// span is one timed call. Spans of one window share Window (the
// assembler sequence number); Parent is the ID of the span that caused
// this one, -1 for a window's root. Replay marks a call the benchmark
// repeated on the same inputs right after the real call, to time work
// that happens inside another layer's call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Window uint64 `json:"window"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Path   string `json:"path,omitempty"`
	Replay bool   `json:"replay,omitempty"`
}

func (sp span) dur() time.Duration { return time.Duration(sp.End - sp.Start) }

// tracer keeps spans in memory until the run ends. The generator
// goroutine appends only to pushes, the consumer goroutine only to
// spans; they are merged after both have stopped.
type tracer struct {
	t0     time.Time
	pushes []span
	spans  []span

	// Replay scratch, sized on first use.
	xhat, ws, med []float64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// push records one generator Push call for window seq.
func (t *tracer) push(seq uint64, start, end time.Time) {
	t.pushes = append(t.pushes, span{Parent: -1, Name: "collector.push", Window: seq, Start: t.ns(start), End: t.ns(end)})
}

// add records a consumer-side span and returns its ID.
func (t *tracer) add(parent int, name string, seq uint64, start, end time.Time) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Window: seq, Start: t.ns(start), End: t.ns(end)})
	return id
}

func (t *tracer) replay(parent int, name string, seq uint64, start, end time.Time) int {
	id := t.add(parent, name, seq, start, end)
	t.spans[id].Replay = true
	return id
}

// all merges the generator's push spans into the consumer's spans,
// parenting each push under its window's root span.
func (t *tracer) all() []span {
	roots := make(map[uint64]int)
	for _, sp := range t.spans {
		if sp.Name == "window" {
			roots[sp.Window] = sp.ID
		}
	}
	out := append([]span(nil), t.spans...)
	for _, sp := range t.pushes {
		sp.ID = len(out)
		if id, ok := roots[sp.Window]; ok {
			sp.Parent = id
		}
		out = append(out, sp)
	}
	return out
}

// durations returns the durations of every span with the given name
// (and path, when non-empty).
func durations(spans []span, name, path string) []float64 {
	var out []float64
	for _, sp := range spans {
		if sp.Name == name && (path == "" || sp.Path == path) {
			out = append(out, float64(sp.dur()))
		}
	}
	return out
}

// layerShares splits the traced windows' work across modules: the
// generator's Push calls (which include window assembly) for
// collector, the replayed solve for matrix, the replayed median for
// stats, the replayed engines minus those two for core, and the rest
// of each Run/RunBatch call plus emit for foces. Only clean windows
// carry replays, so shares are taken over them.
func layerShares(spans []span) map[string]float64 {
	clean := make(map[uint64]bool)
	for _, sp := range spans {
		if sp.Name == "foces.run" && sp.Path == foces.PathClean {
			clean[sp.Window] = true
		}
	}
	sum := map[string]float64{}
	var full, sliced, run float64
	for _, sp := range spans {
		if !clean[sp.Window] {
			continue
		}
		d := float64(sp.dur())
		switch sp.Name {
		case "collector.push":
			sum["collector"] += d
		case "matrix.solve":
			sum["matrix"] += d
		case "stats.median":
			sum["stats"] += d
		case "core.full":
			full += d
		case "core.sliced":
			sliced += d
		case "foces.run":
			run += d
		case "foces.emit":
			sum["foces"] += d
		}
	}
	sum["core"] = full + sliced - sum["matrix"] - sum["stats"]
	if rest := run - full - sliced; rest > 0 {
		sum["foces"] += rest
	}
	total := 0.0
	for _, v := range sum {
		if v > 0 {
			total += v
		}
	}
	shares := map[string]float64{}
	for _, layer := range []string{"collector", "foces", "core", "matrix", "stats"} {
		if total > 0 && sum[layer] > 0 {
			shares[layer] = 100 * sum[layer] / total
		} else {
			shares[layer] = 0
		}
	}
	return shares
}

// dominant names the layer with the largest share.
func dominant(shares map[string]float64) string {
	names := make([]string, 0, len(shares))
	for k := range shares {
		names = append(names, k)
	}
	sort.Strings(names)
	best := ""
	for _, k := range names {
		if best == "" || shares[k] > shares[best] {
			best = k
		}
	}
	return best
}

// serveTraced replaces System.Serve with a consumer the benchmark owns:
// it groups pending windows into RunBatch calls the way Serve does and
// records a span around every call into the system, then replays the
// clean windows' inner layers on the same inputs. The generator waits
// for the replays too, so rule updates never race them. Stop it with
// the returned function after closing the assembler or once every
// verdict is in.
func (s *stream) serveTraced() (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var (
			batch []foces.StreamWindow
			recv  []time.Time
			obs   []foces.Observation
			buf   []byte
		)
		windows := s.asm.Windows()
		for {
			var w foces.StreamWindow
			var ok bool
			select {
			case <-quit:
				return
			case w, ok = <-windows:
				if !ok {
					return
				}
			}
			batch = append(batch[:0], w)
			recv = append(recv[:0], time.Now())
		drain:
			for len(batch) < batchMax {
				select {
				case w, ok := <-windows:
					if !ok {
						break drain
					}
					batch = append(batch, w)
					recv = append(recv, time.Now())
				default:
					break drain
				}
			}
			buf = s.runTraced(batch, recv, &obs, buf)
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// runTraced detects one group of windows, records their verdicts and
// spans, replays the clean ones and releases every window.
func (s *stream) runTraced(batch []foces.StreamWindow, recv []time.Time, obs *[]foces.Observation, buf []byte) []byte {
	tr := s.tr
	kept := batch[:0]
	keptRecv := recv[:0]
	for k := range batch {
		if len(batch[k].Deltas) == 0 {
			batch[k].Release()
			continue
		}
		kept = append(kept, batch[k])
		keptRecv = append(keptRecv, recv[k])
	}
	if len(kept) == 0 {
		return buf
	}
	o := (*obs)[:0]
	for _, w := range kept {
		o = append(o, observation(w))
	}
	*obs = o
	t0 := time.Now()
	reports, batchErr := s.sys.RunBatch(o)
	t1 := time.Now()
	share := t1.Sub(t0) / time.Duration(len(kept))
	for k, w := range kept {
		seq := w.Seq
		rec := &s.recs[int(seq)-1]
		var rep foces.Report
		var err error
		runStart := t0.Add(time.Duration(k) * share)
		runEnd := runStart.Add(share)
		if batchErr == nil {
			rep = reports[k]
		} else {
			runStart = time.Now()
			rep, err = s.sys.Run(o[k])
			runEnd = time.Now()
		}
		root := tr.add(-1, "window", seq, rec.due, rec.due)
		if !w.Opened.IsZero() {
			tr.add(root, "collector.assemble", seq, w.Opened, keptRecv[k])
		}
		run := tr.add(root, "foces.run", seq, runStart, runEnd)
		tr.spans[run].Path = rep.Path
		e0 := time.Now()
		buf = s.record(seq, rep, len(kept), err, buf)
		e1 := time.Now()
		tr.add(root, "foces.emit", seq, e0, e1)
		tr.spans[root].End = tr.ns(e1)
		if rec.due.IsZero() {
			tr.spans[root].Start = tr.ns(w.Opened)
		}
		if err == nil && rep.Path == foces.PathClean {
			s.replay(root, w)
		}
		w.Release()
		s.markReceived()
	}
	return buf
}

// replay repeats a clean window's inner calls on the same inputs, right
// after the real Run: vectorization, the full engine with its solve
// and median, and the sliced engine.
func (s *stream) replay(root int, w foces.StreamWindow) {
	tr := s.tr
	seq := w.Seq
	t0 := time.Now()
	y, err := s.sys.CounterVector(w.Deltas)
	tr.replay(root, "foces.vectorize", seq, t0, time.Now())
	if err != nil {
		return
	}
	det := s.sys.Detector()
	t0 = time.Now()
	res, err := det.DetectWithOptions(y, foces.DetectOptions{})
	full := tr.replay(root, "core.full", seq, t0, time.Now())
	if err == nil {
		if ls := det.Prepared(); ls != nil {
			if len(tr.xhat) != ls.Cols() {
				tr.xhat, tr.ws = make([]float64, ls.Cols()), make([]float64, ls.Cols())
			}
			t0 = time.Now()
			_ = ls.SolveInto(tr.xhat, y, tr.ws)
			tr.replay(full, "matrix.solve", seq, t0, time.Now())
		}
		if len(tr.med) < len(res.Delta) {
			tr.med = make([]float64, len(res.Delta))
		}
		t0 = time.Now()
		_, _ = stats.MedianInto(tr.med, res.Delta)
		tr.replay(full, "stats.median", seq, t0, time.Now())
	}
	t0 = time.Now()
	_, _ = s.sys.SlicedDetector().DetectWithOptions(y, foces.DetectOptions{})
	tr.replay(root, "core.sliced", seq, t0, time.Now())
}

// setupLayers times the set-up layers one by one from outside, through
// their exported entry points: topology build, controller rule
// computation, FCM generation, and engine preparation (the full
// engine, the slices and the sliced engine). sys is a spare System
// whose controller may be recomputed. Each figure is the median of
// repeats, in milliseconds.
func setupLayers(sys *foces.System, f *fabric, repeats int) (map[string]float64, error) {
	times := map[string][]float64{}
	ms := func(name string, t0 time.Time) {
		times[name] = append(times[name], float64(time.Since(t0))/1e6)
	}
	for r := 0; r < repeats; r++ {
		t0 := time.Now()
		if _, err := foces.FatTree(f.k); err != nil {
			return nil, err
		}
		ms("topo.build_ms", t0)

		t0 = time.Now()
		if err := sys.Controller().ComputeRulesForPairs(f.pairs); err != nil {
			return nil, err
		}
		ms("controller.rules_ms", t0)

		t0 = time.Now()
		fcm, err := foces.GenerateFCM(sys.Topology(), sys.Layout(), sys.Controller().Rules())
		if err != nil {
			return nil, err
		}
		ms("fcm.generate_ms", t0)

		t0 = time.Now()
		if _, err := foces.NewDetector(fcm, foces.DetectOptions{}); err != nil {
			return nil, err
		}
		slices, err := foces.BuildSlices(fcm)
		if err != nil {
			return nil, err
		}
		if _, err := foces.NewSlicedDetector(fcm, slices, foces.DetectOptions{}); err != nil {
			return nil, err
		}
		ms("core.prepare_ms", t0)
	}
	out := map[string]float64{}
	for k, v := range times {
		out[k] = median(v)
	}
	return out, nil
}

// writeTrace writes the run's header and every span, one JSON object a
// line.
func writeTrace(path string, header any, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
