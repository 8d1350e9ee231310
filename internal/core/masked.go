package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"foces/internal/matrix"
	"foces/internal/stats"
)

// This file supports the churn subsystem: engines rebuilt from
// incrementally maintained factors, and detection with a subset of rows
// masked out — the reconciliation path for counter windows that
// straddle a rule update (rows whose rules changed mid-window carry
// mixed-epoch counts and must not be read as forwarding anomalies).

// NewDetectorFromPrepared wraps an externally prepared least-squares
// engine (for example one whose factor was advanced by rank-one
// update/downdate from the previous rule generation) as a Detector.
func NewDetectorFromPrepared(ls *matrix.PreparedLS, opts Options) *Detector {
	d := &Detector{h: ls.H(), opts: opts, ls: ls}
	rows, cols := d.h.Rows(), d.h.Cols()
	d.pool.New = func() any {
		return &detectScratch{ws: make([]float64, cols), med: make([]float64, rows)}
	}
	return d
}

// Prepared exposes the engine's prepared least-squares solver (nil when
// H is degenerate). Callers deriving a modified factor must Clone it.
func (d *Detector) Prepared() *matrix.PreparedLS { return d.ls }

// NewSlicedDetectorWithEngines assembles a sliced detector from
// pre-built per-slice engines, skipping the per-slice factorization
// that NewSlicedDetector performs. The churn manager uses it to carry
// unaffected slices' engines across a rule update unchanged. Each
// engine's row count must match its slice's RuleRows.
func NewSlicedDetectorWithEngines(slices []Slice, engines []*Detector, numRules int, opts Options) (*SlicedDetector, error) {
	if len(engines) != len(slices) {
		return nil, fmt.Errorf("core: %d engines for %d slices", len(engines), len(slices))
	}
	for i, sl := range slices {
		for _, rid := range sl.RuleRows {
			if rid < 0 || rid >= numRules {
				return nil, fmt.Errorf("core: slice rule %d outside counter vector (%d)", rid, numRules)
			}
		}
		if engines[i] == nil {
			return nil, fmt.Errorf("core: slice switch %d: nil engine", sl.Switch)
		}
		if engines[i].h.Rows() != len(sl.RuleRows) {
			return nil, fmt.Errorf("core: slice switch %d: engine has %d rows, slice %d",
				sl.Switch, engines[i].h.Rows(), len(sl.RuleRows))
		}
	}
	return newSlicedDetector(slices, engines, numRules, opts), nil
}

// DetectMasked runs Algorithm 1 with the given rows (indices into y /
// the engine's H) excluded from the equation system and from the
// error statistics. The prepared Gram factor is downdated by each
// masked row in O(k·n²) instead of refactored; if the downdated system
// loses positive definiteness the engine falls back to a one-shot
// solve over the surviving rows. Delta and YHat stay aligned with the
// full row space (masked entries read 0 in Delta).
func (d *Detector) DetectMasked(y []float64, masked []int) (Result, error) {
	h := d.h
	if h.Rows() != len(y) {
		return Result{}, fmt.Errorf("core: H is %dx%d but y has %d entries", h.Rows(), h.Cols(), len(y))
	}
	mask := make([]bool, h.Rows())
	nMasked := 0
	for _, i := range masked {
		if i < 0 || i >= h.Rows() {
			return Result{}, fmt.Errorf("core: masked row %d outside %d rows", i, h.Rows())
		}
		if !mask[i] {
			mask[i] = true
			nMasked++
		}
	}
	if nMasked == 0 {
		return d.Detect(y)
	}
	tel := d.tel
	var t0 time.Time
	if tel != nil {
		t0 = time.Now()
	}
	kept := make([]int, 0, h.Rows()-nMasked)
	for i := 0; i < h.Rows(); i++ {
		if !mask[i] {
			kept = append(kept, i)
		}
	}
	yKept := make([]float64, len(kept))
	for j, i := range kept {
		yKept[j] = y[i]
	}
	opts := d.opts.withDefaults(yKept)
	if len(kept) == 0 || h.Rows() == 0 {
		// Every observable row is masked: nothing to check this window.
		res := Result{Delta: make([]float64, len(y))}
		tel.outcome(t0, res)
		return res, nil
	}
	if h.Cols() == 0 {
		delta := make([]float64, len(y))
		compact := make([]float64, 0, len(kept))
		for _, i := range kept {
			delta[i] = math.Abs(y[i])
			compact = append(compact, delta[i])
		}
		res := Result{Delta: delta, YHat: make([]float64, len(y))}
		res.ErrMax, _ = stats.Max(compact)
		res.Index = anomalyIndex(res.ErrMax, 0, opts.ZeroTol)
		res.Anomalous = res.Index > opts.Threshold
		tel.outcome(t0, res)
		return res, nil
	}
	var xHat []float64
	solved := false
	// CloneFactor works for dense- and sparse-backed engines alike; a
	// nil clone (degenerate engine) falls through to the one-shot solve.
	if chol := d.cloneFactorForMask(); chol != nil {
		row := make([]float64, h.Cols())
		ok := true
		for i := range mask {
			if !mask[i] {
				continue
			}
			for j := range row {
				row[j] = 0
			}
			nnz := 0
			h.RowEntries(i, func(col int, v float64) {
				row[col] = v
				nnz++
			})
			if nnz == 0 {
				continue // placeholder / all-zero row: Gram unaffected
			}
			if err := chol.Downdate(row); err != nil {
				if errors.Is(err, matrix.ErrNotPositiveDefinite) {
					ok = false
					break
				}
				return Result{}, fmt.Errorf("core: masked downdate: %w", err)
			}
		}
		if ok {
			// Hᵀy with masked rows zeroed is exactly the masked system's
			// right-hand side.
			ym := make([]float64, len(y))
			copy(ym, y)
			for i := range mask {
				if mask[i] {
					ym[i] = 0
				}
			}
			xHat = make([]float64, h.Cols())
			if err := h.TMulVecInto(xHat, ym); err != nil {
				return Result{}, err
			}
			if err := chol.SolveInto(xHat, xHat, make([]float64, h.Cols())); err != nil {
				return Result{}, fmt.Errorf("core: masked solve: %w", err)
			}
			solved = true
		}
	}
	if !solved {
		cols := make([]int, h.Cols())
		for j := range cols {
			cols[j] = j
		}
		sub, err := h.SubMatrix(kept, cols)
		if err != nil {
			return Result{}, err
		}
		xHat, err = matrix.SolveNormalEquations(sub, yKept, matrix.LeastSquaresOptions{})
		if err != nil {
			return Result{}, fmt.Errorf("core: masked volume estimate: %w", err)
		}
	}
	yHat := make([]float64, h.Rows())
	if err := h.MulVecInto(yHat, xHat); err != nil {
		return Result{}, err
	}
	delta := make([]float64, h.Rows())
	compact := make([]float64, 0, len(kept))
	for _, i := range kept {
		delta[i] = math.Abs(y[i] - yHat[i])
		compact = append(compact, delta[i])
	}
	res := Result{Delta: delta, XHat: xHat, YHat: yHat}
	res.ErrMax, _ = stats.Max(compact)
	res.ErrMed = opts.denominatorInto(make([]float64, len(compact)), compact)
	res.Index = anomalyIndex(res.ErrMax, res.ErrMed, opts.ZeroTol)
	res.Anomalous = res.Index > opts.Threshold
	tel.outcome(t0, res)
	return res, nil
}

// cloneFactorForMask returns an independently downdatable copy of the
// engine's Gram factor for the masked path, or nil when the engine has
// no factor to downdate (degenerate H).
func (d *Detector) cloneFactorForMask() matrix.UpdatableFactor {
	if d.ls == nil {
		return nil
	}
	return d.ls.CloneFactor()
}

// DetectMasked runs Algorithm 2 with the given global rule rows masked
// out of every slice they appear in — the sliced form of the
// epoch-straddling-window reconciliation. It runs sequentially; the
// reconciliation path fires only on the single window that spans an
// update, not in steady state.
func (sd *SlicedDetector) DetectMasked(y []float64, masked []int) (SlicedOutcome, error) {
	if len(masked) == 0 {
		return sd.Detect(y)
	}
	if len(y) != sd.numRules {
		return SlicedOutcome{}, fmt.Errorf("core: counter vector has %d entries, sliced detector expects %d", len(y), sd.numRules)
	}
	tel := sd.tel
	var t0 time.Time
	if tel != nil {
		t0 = time.Now()
		tel.fanout.Observe(float64(len(sd.slices)))
	}
	maskSet := make(map[int]bool, len(masked))
	for _, rid := range masked {
		maskSet[rid] = true
	}
	results := make([]Result, len(sd.slices))
	for i, sl := range sd.slices {
		sub := make([]float64, len(sl.RuleRows))
		var local []int
		for j, rid := range sl.RuleRows {
			sub[j] = y[rid]
			if maskSet[rid] {
				local = append(local, j)
			}
		}
		res, err := sd.engines[i].DetectMasked(sub, local)
		if err != nil {
			return SlicedOutcome{}, fmt.Errorf("core: slice switch %d: %w", sl.Switch, err)
		}
		tel.slice(res)
		results[i] = res
	}
	out := MergeSliceResults(sd.slices, results)
	tel.outcome(t0, out.Anomalous)
	return out, nil
}
