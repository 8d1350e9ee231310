// Package stats provides the statistical machinery behind FOCES'
// threshold-based detector and its evaluation: folded-normal noise
// modelling (used in §IV-A to derive the default threshold 4.5),
// order statistics for the anomaly index, ROC curves, and confusion
// metrics for Experiments 2-4.
package stats

import (
	"errors"
	"math"
	"math/bits"
	"sort"
)

// ErrEmpty is returned by order statistics over empty inputs.
var ErrEmpty = errors.New("stats: empty input")

// Median computes the median of xs without mutating it. For even
// lengths it returns the mean of the two central elements.
func Median(xs []float64) (float64, error) {
	return MedianInto(make([]float64, len(xs)), xs)
}

// MedianInto computes the median of xs like Median, but selects it
// from a copy of xs inside scratch (grown if shorter than xs) instead
// of sorting, with zero allocation when the caller reuses scratch
// across periods. xs is never mutated; scratch is.
//
// Selection takes O(n) time on random, monotone and tie-heavy inputs
// alike: all copies of a tied value, such as the exact-zero residuals
// of a clean window, are gathered in a single pass. A depth guard caps
// every input, adversarial orderings included, at O(n log n).
//
// NaN does not order, so if xs contains a NaN the returned value is
// unspecified (it may or may not be NaN). The call still stays within
// the same bound, never panics and still leaves xs untouched.
func MedianInto(scratch, xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if len(scratch) < len(xs) {
		scratch = make([]float64, len(xs))
	}
	s := scratch[:len(xs)]
	copy(s, xs)
	mid := len(s) / 2
	quickselect(s, mid)
	if len(s)%2 == 1 {
		return s[mid], nil
	}
	// After selection everything left of mid is <= s[mid]; the lower
	// central element is the maximum of that partition.
	lower := s[0]
	for _, v := range s[1:mid] {
		if v > lower {
			lower = v
		}
	}
	return (lower + s[mid]) / 2, nil
}

// quickselect partially sorts s so that s[k] holds the k-th smallest
// element, everything before it is <= s[k] and everything after is
// >= s[k].
//
// The pivot is the median of the elements at the quartiles and middle
// of the range, so sorted, reversed and organ-pipe inputs split near
// evenly without randomness. The partition is a branch-free Lomuto
// loop, which does not mispredict on random data. Ties are handled as
// in pdqsort: floor bounds the range from below, so a pivot that is not
// above it is the range minimum, and that round gathers every copy of
// it in one pass. After 2·bits.Len(n) rounds the remaining range is
// sorted outright, which caps adversarial inputs at O(n log n).
func quickselect(s []float64, k int) {
	lo, hi := 0, len(s)-1
	floor := math.Inf(-1)
	for depth := 2 * bits.Len(uint(len(s))); lo < hi; depth-- {
		if depth == 0 {
			sort.Float64s(s[lo : hi+1])
			return
		}
		q := (hi - lo) / 4
		a, m, b := lo+q, lo+2*q, hi-q
		if s[m] < s[a] {
			s[m], s[a] = s[a], s[m]
		}
		if s[b] < s[a] {
			s[b], s[a] = s[a], s[b]
		}
		if s[b] < s[m] {
			s[b], s[m] = s[m], s[b]
		}
		s[m], s[hi] = s[hi], s[m]
		pivot := s[hi]
		// Swap each element into place, advancing p only past those
		// that go left of the pivot: smaller ones, or with ties the
		// pivot's copies. The 0/1 increment compiles to a flag set,
		// not a branch.
		p, t := lo, s[lo:hi]
		ties := !(floor < pivot)
		if ties {
			for i, v := range t {
				t[i], s[p] = s[p], v
				inc := 1
				if pivot < v {
					inc = 0
				}
				p += inc
			}
		} else {
			for i, v := range t {
				t[i], s[p] = s[p], v
				inc := 0
				if v < pivot {
					inc = 1
				}
				p += inc
			}
		}
		s[p], s[hi] = s[hi], s[p]
		switch {
		case k == p, ties && k < p:
			return // with ties, s[lo..p] all equal the pivot
		case k < p:
			hi = p - 1
		default:
			lo = p + 1
			floor = pivot
		}
	}
}

// Max returns the maximum of xs.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, v := range xs[1:] {
		if v > m {
			m = v
		}
	}
	return m, nil
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs)), nil
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) (float64, error) {
	mu, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	var s float64
	for _, v := range xs {
		d := v - mu
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs))), nil
}

// FoldedNormalCDF evaluates the CDF of |N(0, σ²)| at x >= 0:
// F(x) = erf(x / sqrt(2σ²)). This models an error-vector entry when the
// observed counter Y'(i) ~ N(Y0(i), σ²) (§IV-A).
func FoldedNormalCDF(x, sigma float64) float64 {
	if sigma <= 0 {
		if x >= 0 {
			return 1
		}
		return 0
	}
	if x < 0 {
		return 0
	}
	return math.Erf(x / (sigma * math.Sqrt2))
}

// FoldedNormalMedian returns the median of |N(0, σ²)|:
// sqrt(2)·erfinv(1/2)·σ ≈ 0.6745σ.
func FoldedNormalMedian(sigma float64) float64 {
	return math.Sqrt2 * math.Erfinv(0.5) * sigma
}

// DeriveThreshold reproduces the paper's threshold derivation: by the
// three-sigma rule Err_max <= 3σ with probability 0.997 while
// Err_med ≈ 0.675σ, so AI = Err_max/Err_med stays below ≈ 4.45 under
// pure noise. The sigma cancels; the function takes none.
func DeriveThreshold() float64 {
	return 3 / FoldedNormalMedian(1)
}

// DefaultThreshold is the paper's default detection threshold T = 4.5,
// chosen just above DeriveThreshold() ≈ 4.45.
const DefaultThreshold = 4.5

// Sample pairs a detector score with the ground-truth label of the
// observation (Positive = a forwarding anomaly was actually present).
type Sample struct {
	Score    float64
	Positive bool
}

// Confusion is a binary confusion matrix.
type Confusion struct {
	TP, FP, TN, FN int
}

// Evaluate classifies each sample as positive when Score > threshold
// and tallies the confusion matrix.
func Evaluate(samples []Sample, threshold float64) Confusion {
	var c Confusion
	for _, s := range samples {
		flagged := s.Score > threshold
		switch {
		case flagged && s.Positive:
			c.TP++
		case flagged && !s.Positive:
			c.FP++
		case !flagged && s.Positive:
			c.FN++
		default:
			c.TN++
		}
	}
	return c
}

// TPR returns the true-positive rate TP/(TP+FN); NaN-free (0 when
// undefined).
func (c Confusion) TPR() float64 { return ratio(c.TP, c.TP+c.FN) }

// FPR returns the false-positive rate FP/(FP+TN).
func (c Confusion) FPR() float64 { return ratio(c.FP, c.FP+c.TN) }

// Precision returns TP/(TP+FP), the metric of Experiment 3 (Fig 9).
func (c Confusion) Precision() float64 { return ratio(c.TP, c.TP+c.FP) }

// Accuracy returns (TP+TN)/(P+N), the metric of Experiment 4 (Fig 10).
func (c Confusion) Accuracy() float64 {
	return ratio(c.TP+c.TN, c.TP+c.TN+c.FP+c.FN)
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// ROCPoint is one operating point of a ROC curve.
type ROCPoint struct {
	Threshold float64
	TPR, FPR  float64
}

// ROC sweeps the given thresholds over the samples and returns one
// operating point per threshold, in the given threshold order.
func ROC(samples []Sample, thresholds []float64) []ROCPoint {
	out := make([]ROCPoint, 0, len(thresholds))
	for _, t := range thresholds {
		c := Evaluate(samples, t)
		out = append(out, ROCPoint{Threshold: t, TPR: c.TPR(), FPR: c.FPR()})
	}
	return out
}

// AUC integrates the ROC curve by trapezoid over FPR, after sorting
// points by FPR and anchoring at (0,0) and (1,1).
func AUC(points []ROCPoint) float64 {
	pts := make([]ROCPoint, 0, len(points)+2)
	pts = append(pts, ROCPoint{FPR: 0, TPR: 0})
	pts = append(pts, points...)
	pts = append(pts, ROCPoint{FPR: 1, TPR: 1})
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].FPR != pts[j].FPR {
			return pts[i].FPR < pts[j].FPR
		}
		return pts[i].TPR < pts[j].TPR
	})
	var area float64
	for i := 1; i < len(pts); i++ {
		dx := pts[i].FPR - pts[i-1].FPR
		area += dx * (pts[i].TPR + pts[i-1].TPR) / 2
	}
	return area
}

// LinSpace returns n evenly spaced values from lo to hi inclusive.
func LinSpace(lo, hi float64, n int) []float64 {
	if n <= 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	return out
}
