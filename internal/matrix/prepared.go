package matrix

import (
	"errors"
	"fmt"
	"time"
)

// PreparedLS is a factor-once/solve-many least-squares engine for a
// fixed sparse H: the normal-equations matrix HᵀH is assembled and
// Cholesky-factored at prepare time (with the ridge fallback for
// linearly dependent columns baked in), so each subsequent solve costs
// only one sparse Hᵀy product and two triangular substitutions — no
// O(n³) work and, via SolveInto, no allocation. H only changes when the
// controller installs rules, so continuous monitors prepare once per
// rule generation and solve every detection period.
//
// The factorization backend is selected per KernelOptions.Sparse: the
// default SparseAuto assembles the Gram sparsely and keeps it sparse
// when its density is at or below the threshold, breaking the O(n²)
// dense-Gram memory wall; denser systems scatter to the dense kernels
// and behave exactly as before.
type PreparedLS struct {
	h     *CSR
	chol  *Cholesky       // dense backend (nil when sparse)
	sp    *SparseCholesky // sparse backend (nil when dense)
	ridge float64
	stats PrepareStats
}

// PrepareStats records where prepare time went, for the prepare-stage
// telemetry histograms. All durations are zero for engines wrapped
// with NewPreparedLSFromFactor (no Gram or factorization ran).
type PrepareStats struct {
	// Gram is the HᵀH assembly time (sparse or dense form).
	Gram time.Duration
	// Factor is the total factorization time, including the ridge retry
	// when the plain factorization failed. On the sparse path it equals
	// Ordering + Symbolic + Numeric.
	Factor time.Duration
	// Sparse-path stage split (zero on the dense path): fill-reducing
	// ordering, symbolic analysis, and numeric factorization.
	Ordering time.Duration
	Symbolic time.Duration
	Numeric  time.Duration
	// Sparse reports which backend was selected.
	Sparse bool
	// GramNNZ and FactorNNZ record the stored lower-triangle entry
	// counts of the sparse Gram and its factor (zero on the dense path);
	// their ratio is the fill-in.
	GramNNZ, FactorNNZ int
}

// UpdatableFactor is the rank-one-maintainable factor interface shared
// by the dense *Cholesky and the *SparseCholesky backends. The churn
// manager clones a prepared engine's factor through it and repairs the
// clone in place, without caring which backend prepared the engine.
type UpdatableFactor interface {
	N() int
	Valid() bool
	Update(x []float64) error
	Downdate(x []float64) error
	SolveInto(dst, b, scratch []float64) error
}

// PrepareLS assembles and factors the normal equations of h under the
// package kernel defaults. When HᵀH is singular it applies the same
// ridge regularization as SolveNormalEquations (opts.Ridge, or a
// trace-scaled default) before refactoring, so prepared and one-shot
// solves agree exactly.
func PrepareLS(h *CSR, opts LeastSquaresOptions) (*PreparedLS, error) {
	return PrepareLSOpts(h, opts, KernelOptions{})
}

// PrepareLSOpts prepares like PrepareLS with explicit kernel options.
func PrepareLSOpts(h *CSR, opts LeastSquaresOptions, ko KernelOptions) (*PreparedLS, error) {
	return prepareLS(h, opts, ko, nil)
}

// PrepareLSReusing prepares like PrepareLSOpts but, when prev is a
// sparse-backed engine whose Gram pattern exactly matches h's, reuses
// prev's cached ordering and symbolic analysis and runs only the
// numeric factorization. The churn manager uses it so value-only rule
// churn (and ridge retries) never repeat the pattern work.
func PrepareLSReusing(h *CSR, opts LeastSquaresOptions, ko KernelOptions, prev *PreparedLS) (*PreparedLS, error) {
	var sym *SparseSymbolic
	if prev != nil && prev.sp != nil {
		sym = prev.sp.sym
	}
	return prepareLS(h, opts, ko, sym)
}

func prepareLS(h *CSR, opts LeastSquaresOptions, ko KernelOptions, prevSym *SparseSymbolic) (*PreparedLS, error) {
	mode, density := resolveSparse(ko)
	if mode == SparseNever {
		return prepareDense(h, opts, ko, nil, 0)
	}
	t0 := time.Now()
	g := h.SymGram()
	tGram := time.Since(t0)
	if mode != SparseAlways && g.Density() > density {
		// Too dense for the sparse factor to pay off: scatter the already
		// assembled Gram (entry-for-entry equal to the serial dense
		// assembly) and run the dense path.
		return prepareDense(h, opts, ko, g, tGram)
	}
	return prepareSparse(h, opts, ko, g, tGram, prevSym)
}

// prepareDense is the dense backend: Gram (reusing a sparse assembly
// when one was already built for the density probe), blocked Cholesky,
// ridge retry.
func prepareDense(h *CSR, opts LeastSquaresOptions, ko KernelOptions, g *SymSparse, tGram time.Duration) (*PreparedLS, error) {
	var gram *Dense
	if g != nil {
		t0 := time.Now()
		gram = g.ToDense()
		tGram += time.Since(t0)
	} else {
		t0 := time.Now()
		gram = h.GramOpts(ko)
		tGram = time.Since(t0)
	}
	t1 := time.Now()
	chol, err := NewCholeskyOpts(gram, ko)
	if err == nil {
		return &PreparedLS{h: h, chol: chol, stats: PrepareStats{Gram: tGram, Factor: time.Since(t1)}}, nil
	}
	if !errors.Is(err, ErrNotPositiveDefinite) {
		return nil, err
	}
	ridge := opts.Ridge
	if ridge == 0 {
		trace := 0.0
		for i := 0; i < gram.Rows(); i++ {
			trace += gram.At(i, i)
		}
		ridge = 1e-9 * (trace/float64(gram.Rows()) + 1)
	}
	for i := 0; i < gram.Rows(); i++ {
		gram.Add(i, i, ridge)
	}
	chol, err = NewCholeskyOpts(gram, ko)
	if err != nil {
		return nil, fmt.Errorf("matrix: ridge-regularized normal equations: %w", err)
	}
	return &PreparedLS{h: h, chol: chol, ridge: ridge, stats: PrepareStats{Gram: tGram, Factor: time.Since(t1)}}, nil
}

// prepareSparse is the sparse backend: AMD ordering + symbolic analysis
// (reused from prevSym when its Gram pattern matches), supernodal
// numeric factorization, ridge retry on the same analysis.
func prepareSparse(h *CSR, opts LeastSquaresOptions, ko KernelOptions, g *SymSparse, tGram time.Duration, prevSym *SparseSymbolic) (*PreparedLS, error) {
	var tOrd, tSym time.Duration
	sym := prevSym
	if sym == nil || !sym.Matches(g) {
		t0 := time.Now()
		perm := amdOrder(g.n, g.adjPtr, g.adj)
		tOrd = time.Since(t0)
		t1 := time.Now()
		sym = symbolicFromPerm(g, perm)
		tSym = time.Since(t1)
	}
	t2 := time.Now()
	sp, err := newSparseCholeskyWith(g, sym, ko)
	ridge := 0.0
	if err != nil {
		if !errors.Is(err, ErrNotPositiveDefinite) {
			return nil, err
		}
		ridge = opts.Ridge
		if ridge == 0 {
			ridge = 1e-9 * (g.Trace()/float64(g.n) + 1)
		}
		// The pattern always stores diagonal slots, so the ridge retry
		// reuses the same symbolic analysis.
		g.AddRidge(ridge)
		sp, err = newSparseCholeskyWith(g, sym, ko)
		if err != nil {
			return nil, fmt.Errorf("matrix: ridge-regularized normal equations: %w", err)
		}
	}
	tNum := time.Since(t2)
	return &PreparedLS{h: h, sp: sp, ridge: ridge, stats: PrepareStats{
		Gram:      tGram,
		Factor:    tOrd + tSym + tNum,
		Ordering:  tOrd,
		Symbolic:  tSym,
		Numeric:   tNum,
		Sparse:    true,
		GramNNZ:   g.NNZLower(),
		FactorNNZ: sp.FactorNNZ(),
	}}, nil
}

// NewPreparedLSFromFactor wraps an externally maintained dense Cholesky
// factor of hᵀh (for example one produced by rank-one Update/Downdate
// from a previous generation's factor) as a prepared engine. The caller
// is responsible for chol actually factoring hᵀh (+ ridge·I); beyond
// the dimension match the only check is that the factor has not been
// poisoned by a failed rank-one pass.
func NewPreparedLSFromFactor(h *CSR, chol *Cholesky, ridge float64) (*PreparedLS, error) {
	return NewPreparedLSFromUpdatable(h, chol, ridge)
}

// NewPreparedLSFromUpdatable wraps a rank-one-maintained factor of
// either backend as a prepared engine. Poisoned factors (a failed
// Update/Downdate) are rejected with ErrFactorPoisoned so a broken
// factor can never be promoted into a serving engine.
func NewPreparedLSFromUpdatable(h *CSR, f UpdatableFactor, ridge float64) (*PreparedLS, error) {
	if f == nil {
		return nil, fmt.Errorf("matrix: nil factor")
	}
	if f.N() != h.Cols() {
		return nil, fmt.Errorf("matrix: factor dim %d vs %d columns", f.N(), h.Cols())
	}
	if !f.Valid() {
		return nil, ErrFactorPoisoned
	}
	p := &PreparedLS{h: h, ridge: ridge}
	switch t := f.(type) {
	case *Cholesky:
		p.chol = t
	case *SparseCholesky:
		p.sp = t
	default:
		return nil, fmt.Errorf("matrix: unknown factor type %T", f)
	}
	return p, nil
}

// Factor exposes the underlying dense Cholesky factorization of HᵀH,
// or nil when the engine is sparse-backed; prefer CloneFactor for
// backend-agnostic rank-one maintenance. Callers that need a modified
// engine must Clone it first; mutating the returned factor corrupts the
// prepared engine.
func (p *PreparedLS) Factor() *Cholesky { return p.chol }

// SparseBacked reports whether the sparse direct backend prepared this
// engine.
func (p *PreparedLS) SparseBacked() bool { return p.sp != nil }

// CloneFactor returns an independently updatable copy of the prepared
// factor (dense or sparse), or nil for engines without one. The clone
// shares no mutable state with the serving engine.
func (p *PreparedLS) CloneFactor() UpdatableFactor {
	switch {
	case p.sp != nil:
		return p.sp.Clone()
	case p.chol != nil:
		return p.chol.Clone()
	default:
		return nil
	}
}

// H exposes the prepared coefficient matrix.
func (p *PreparedLS) H() *CSR { return p.h }

// Rows reports the row count of the prepared H.
func (p *PreparedLS) Rows() int { return p.h.Rows() }

// Cols reports the column count of the prepared H (the solution
// length, and the required length of dst and workspace in SolveInto).
func (p *PreparedLS) Cols() int { return p.h.Cols() }

// Ridge reports the regularization applied at prepare time (0 when
// plain Cholesky succeeded).
func (p *PreparedLS) Ridge() float64 { return p.ridge }

// Stats reports where the prepare time of this engine went.
func (p *PreparedLS) Stats() PrepareStats { return p.stats }

// Solve computes the least-squares estimate x̂ for observed counters y,
// allocating the result.
func (p *PreparedLS) Solve(y []float64) ([]float64, error) {
	dst := make([]float64, p.Cols())
	if err := p.SolveInto(dst, y, make([]float64, p.Cols())); err != nil {
		return nil, err
	}
	return dst, nil
}

// SolveInto computes x̂ = (HᵀH)⁻¹Hᵀy into dst without allocating.
// workspace is scratch of length Cols() that must not alias dst or y.
func (p *PreparedLS) SolveInto(dst, y, workspace []float64) error {
	if len(y) != p.h.Rows() {
		return fmt.Errorf("matrix: prepared solve dims %dx%d vs %d", p.h.Rows(), p.h.Cols(), len(y))
	}
	if err := p.h.TMulVecInto(dst, y); err != nil {
		return err
	}
	if p.sp != nil {
		return p.sp.SolveInto(dst, dst, workspace)
	}
	return p.chol.SolveInto(dst, dst, workspace)
}

// SolveBatch computes x̂ for k observation vectors in one multi-RHS
// triangular sweep, returning the solutions as the columns of a
// Cols()×k matrix. Column r is bitwise identical to Solve(ys[r]) — the
// dense batch amortizes factor memory traffic across the windows
// without changing any result (see Cholesky.SolveManyInto); the sparse
// backend loops per-window SolveInto, which is already the same
// arithmetic.
func (p *PreparedLS) SolveBatch(ys [][]float64) (*Dense, error) {
	n := p.Cols()
	k := len(ys)
	if p.sp != nil {
		x := NewDense(n, k)
		tmp := make([]float64, n)
		scratch := make([]float64, n)
		for r, y := range ys {
			if err := p.h.TMulVecInto(tmp, y); err != nil {
				return nil, err
			}
			if err := p.sp.SolveInto(tmp, tmp, scratch); err != nil {
				return nil, err
			}
			for i, v := range tmp {
				x.Set(i, r, v)
			}
		}
		return x, nil
	}
	b := NewDense(n, k)
	tmp := make([]float64, n)
	for r, y := range ys {
		if err := p.h.TMulVecInto(tmp, y); err != nil {
			return nil, err
		}
		for i, v := range tmp {
			b.Set(i, r, v)
		}
	}
	x := NewDense(n, k)
	if err := p.chol.SolveManyInto(x, b, NewDense(n, k)); err != nil {
		return nil, err
	}
	return x, nil
}
