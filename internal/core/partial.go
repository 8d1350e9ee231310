package core

import (
	"fmt"
	"sort"
	"time"

	"foces/internal/fcm"
	"foces/internal/matrix"
	"foces/internal/topo"
)

// PartialResult is the outcome of detection restricted to reachable
// switches.
type PartialResult struct {
	Result
	// PresentRows maps each entry of Result.Delta back to its global
	// rule ID.
	PresentRows []int
	// MissingRules counts the rule rows excluded because their switch
	// was unreachable.
	MissingRules int
}

// DetectWithMissing runs Algorithm 1 on the sub-system restricted to
// the rules of reachable switches. When some switches cannot be polled
// (agent down, partition), their counter rows are unknown; rather than
// aborting the detection period, the equation system drops those rows
// and checks consistency of everything still observable. Flows that
// only traverse missing switches contribute empty columns, handled by
// the solver's ridge fallback.
//
// A deviation whose entire counter footprint hides inside the missing
// switches is invisible to this partial check — callers should treat a
// long-unreachable switch as an incident of its own.
func DetectWithMissing(f *fcm.FCM, counters map[int]uint64, missing []topo.SwitchID, opts Options) (PartialResult, error) {
	down := make(map[topo.SwitchID]bool, len(missing))
	for _, sw := range missing {
		down[sw] = true
	}
	present := make([]int, 0, f.NumRules())
	for _, r := range f.Rules {
		if r.Switch < 0 {
			continue // placeholder row for a removed rule ID
		}
		if !down[r.Switch] {
			present = append(present, r.ID)
		}
	}
	sort.Ints(present)
	if len(present) == 0 {
		return PartialResult{}, fmt.Errorf("core: every switch is missing; nothing to check")
	}
	cols := make([]int, f.NumFlows())
	for j := range cols {
		cols[j] = j
	}
	sub, err := f.H.SubMatrix(present, cols)
	if err != nil {
		return PartialResult{}, err
	}
	y := make([]float64, len(present))
	for i, rid := range present {
		y[i] = float64(counters[rid])
	}
	res, err := Detect(sub, y, opts)
	if err != nil {
		return PartialResult{}, err
	}
	return PartialResult{
		Result:       res,
		PresentRows:  present,
		MissingRules: f.NumRules() - len(present),
	}, nil
}

// DetectMissing runs Algorithm 2 restricted to reachable switches, on
// the prepared slice engines. f supplies each rule's hosting switch and
// must be the rule generation sd was prepared for; y is the full
// counter vector (rows of missing switches are never read). Slices
// hosted on missing (unreachable or quarantined) switches are skipped
// outright — their own rules are unobservable, so there is nothing to
// check. A slice with no row on a missing switch runs on its prepared
// engine exactly as in Detect. A slice that loses predecessor rows to a
// missing switch is re-derived from f.H without them and factored for
// this call; only the few slices neighbouring a silent switch pay that.
// PerSwitch holds the checked slices, in slice order. It runs
// sequentially: the missing path fires only while a switch is silent.
//
// An anomaly confined entirely to the missing switches is invisible
// here — treat a long-missing switch as an incident of its own.
func (sd *SlicedDetector) DetectMissing(f *fcm.FCM, y []float64, missing []topo.SwitchID, opts Options) (SlicedOutcome, error) {
	if len(y) != sd.numRules {
		return SlicedOutcome{}, fmt.Errorf("core: counter vector has %d entries, sliced detector expects %d", len(y), sd.numRules)
	}
	down := make(map[topo.SwitchID]bool, len(missing))
	for _, sw := range missing {
		down[sw] = true
	}
	tel := sd.tel
	var t0 time.Time
	if tel != nil {
		t0 = time.Now()
	}
	sc := sd.pool.Get().(*slicedScratch)
	defer sd.pool.Put(sc)
	arena := make([]float64, sd.arenaOff[len(sd.slices)])
	checked := make([]Slice, 0, len(sd.slices))
	results := make([]Result, 0, len(sd.slices))
	var rows []int
	for i, sl := range sd.slices {
		if down[sl.Switch] {
			continue
		}
		rows = rows[:0]
		for _, rid := range sl.RuleRows {
			if !down[f.Rules[rid].Switch] {
				rows = append(rows, rid)
			}
		}
		if len(rows) == 0 {
			continue
		}
		sub := sc.subs[i][:len(rows)]
		for k, rid := range rows {
			sub[k] = y[rid]
		}
		var res Result
		var err error
		if len(rows) == len(sl.RuleRows) {
			res, err = sd.engines[i].detectInto(sub, opts, arena[sd.arenaOff[i]:sd.arenaOff[i+1]])
		} else {
			var h *matrix.CSR
			if h, err = f.H.SubMatrix(rows, sl.FlowCols); err == nil {
				res, err = Detect(h, sub, opts)
			}
		}
		if err != nil {
			return SlicedOutcome{}, fmt.Errorf("core: partial slice for switch %d: %w", sl.Switch, err)
		}
		tel.slice(res)
		checked = append(checked, sl)
		results = append(results, res)
	}
	if len(checked) == 0 {
		return SlicedOutcome{}, fmt.Errorf("core: every slice is hosted on a missing switch; nothing to check")
	}
	if tel != nil {
		tel.fanout.Observe(float64(len(checked)))
	}
	out := MergeSliceResults(checked, results)
	tel.outcome(t0, out.Anomalous)
	return out, nil
}
