package main

import (
	"bytes"
	"fmt"

	"foces"
)

// checkResult is the outcome of the lock-step reference check.
type checkResult struct {
	offered    int // windows that should have produced a verdict
	failed     int // dropped, errored or mismatching windows
	mismatches int
	first      string // first failure, for the log
}

// verify replays every offered window through a reference System that
// applies the same rule updates (scheduled and probed) at the same
// windows, running Run on the
// deltas, missing switches and epoch the schedule implies, and compares
// each streamed report with the reference byte for byte (timings
// zeroed). It models the assembler's delta tracking per switch: a
// silent switch is missing and re-primes in the next window, a reset
// switch is missing and usable in the next window, and a switch whose
// baseline predates the window's epoch straddles it.
//
// The reference System changes only through rule updates, each of which
// advances its epoch, so a window equal to an earlier one in every input
// (interval, epochs, missing switches) reuses that window's reference
// report.
func verify(s *stream, ref *foces.System) (checkResult, error) {
	f := s.fab
	var res checkResult
	primed := make([]bool, len(f.switches))
	base := make([]uint64, len(f.switches)) // epoch of each switch's baseline
	memo := map[string][]byte{}
	var ph, probePh phantom
	var buf []byte
	fail := func(i int, format string, args ...any) {
		res.failed++
		if res.first == "" {
			res.first = fmt.Sprintf("window %d: ", i) + fmt.Sprintf(format, args...)
		}
	}
	for i := 0; i < s.next; i++ {
		rec := &s.recs[i]
		for r := rec.probeFrom; r < rec.probeFrom+rec.probes; r++ {
			for _, op := range probeOps {
				if err := applyOp(ref, f, &probePh, op, r); err != nil {
					return res, fmt.Errorf("reference window %d: probe: %w", i, err)
				}
			}
		}
		if rec.ev.op != opNone {
			if err := applyOp(ref, f, &ph, rec.ev.op, (i-1)/poolSize); err != nil {
				return res, fmt.Errorf("reference window %d: %w", i, err)
			}
			if ph.rule.ID != rec.rule {
				return res, fmt.Errorf("reference window %d: phantom rule is %d, stream installed %d", i, ph.rule.ID, rec.rule)
			}
		}
		if ref.Epoch() != rec.epoch {
			return res, fmt.Errorf("reference window %d: epoch %d, stream pushed under %d", i, ref.Epoch(), rec.epoch)
		}
		if i == 0 {
			for k := range primed {
				primed[k], base[k] = true, rec.epoch
			}
			continue
		}
		res.offered++
		var missing []foces.SwitchID
		usable := make([]bool, len(f.switches))
		epoch := rec.epoch
		for k, sw := range f.switches {
			switch {
			case k == rec.ev.silent:
				missing = append(missing, sw)
				primed[k] = false
			case !primed[k]:
				missing = append(missing, sw)
				primed[k], base[k] = true, rec.epoch
			case k == rec.ev.reset:
				missing = append(missing, sw)
				base[k] = rec.epoch
			default:
				usable[k] = true
				if base[k] < epoch {
					epoch = base[k]
				}
				base[k] = rec.epoch
			}
		}
		key := fmt.Sprintf("%d/%d/%d/%v", rec.ev.j, ref.Epoch(), epoch, missing)
		want, ok := memo[key]
		if !ok {
			counters := make(map[int]uint64, f.ruleSpace)
			row := s.pool.deltas[rec.ev.j]
			for k, rules := range f.rulesBySwitch {
				if !usable[k] {
					continue
				}
				for _, r := range rules {
					counters[r] = row[r]
				}
				if ph.installed && ph.sw == k {
					counters[ph.rule.ID] = 0
				}
			}
			rep, err := ref.Run(foces.Observation{Counters: counters, RunOptions: foces.RunOptions{Missing: missing, Epoch: epoch}})
			if err != nil {
				return res, fmt.Errorf("reference window %d: %w", i, err)
			}
			rep.Timings = foces.RunTimings{}
			if buf, err = rep.AppendJSON(buf[:0]); err != nil {
				return res, err
			}
			want = append([]byte(nil), buf...)
			memo[key] = want
		}
		switch {
		case rec.err != nil:
			fail(i, "detection error: %v", rec.err)
		case rec.report == nil:
			fail(i, "no verdict (window dropped or lost)")
		case !bytes.Equal(rec.report, want):
			res.mismatches++
			fail(i, "report differs from the reference\n  stream:    %s\n  reference: %s", rec.report, want)
		}
	}
	return res, nil
}
