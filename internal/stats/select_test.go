package stats

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// The selection tests pin MedianInto on the inputs that break naive
// quickselects: heavy ties (clean windows are ~40% exact-zero
// residuals), monotone and organ-pipe orders, Musser's median-of-three
// killer sequence, and an input built against this very pivot rule by
// McIlroy's adversary.

// selectSizes covers odd and even lengths, from degenerate to well
// past a FatTree(8) residual vector (~4.5k rules).
var selectSizes = []int{1, 2, 3, 31, 4512, 100000}

// selectShapes returns the worst-case input shapes at length n.
func selectShapes(n int) map[string][]float64 {
	rng := rand.New(rand.NewSource(int64(n)))
	fill := func(f func(i int) float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		return xs
	}
	onehot := make([]float64, n)
	onehot[rng.Intn(n)] = 1
	return map[string][]float64{
		"random":    fill(func(int) float64 { return rng.Float64() }),
		"all-zero":  make([]float64, n),
		"all-equal": fill(func(int) float64 { return 2.5 }),
		"two-valued": fill(func(int) float64 {
			return float64(rng.Intn(2))
		}),
		// A quiet window: 40% exact zeros, the rest a few round-off
		// residue levels, so the median sits inside a block of ties.
		"quiet": fill(func(int) float64 {
			if rng.Float64() < 0.4 {
				return 0
			}
			return 1e-9 * float64(1+rng.Intn(4))
		}),
		"half-zero": fill(func(int) float64 {
			if rng.Intn(2) == 0 {
				return 0
			}
			return rng.Float64()
		}),
		"sorted":    fill(func(i int) float64 { return float64(i) }),
		"reversed":  fill(func(i int) float64 { return float64(n - i) }),
		"organ":     fill(func(i int) float64 { return float64(min(i, n-1-i)) }),
		"m3killer":  musserKiller(n),
		"adversary": adversary(n, 2*bits.Len(uint(n))+1),
		"one-hot":   onehot,
	}
}

// musserKiller returns Musser's median-of-three killer sequence
// (Introspective Sorting and Selection Algorithms, 1997): for k = n/2,
// odd positions interleave i and k+i, the second half holds the evens.
func musserKiller(n int) []float64 {
	k := n / 2
	a := make([]float64, n)
	for i := 1; i <= k; i++ {
		if i%2 == 1 {
			a[i-1] = float64(i)
			if i < k {
				a[i] = float64(k + i)
			}
		}
		a[k+i-1] = float64(2 * i)
	}
	if n%2 == 1 {
		a[n-1] = float64(n)
	}
	return a
}

// adversary builds an input against quickselect's pivot rule with
// McIlroy's adversary (A Killer Adversary for Quicksort, 1999): it
// replays quickselect on item labels whose values are fixed lazily,
// freezing as few items as possible to small values so that every
// median-of-three pivot lands next to the bottom of its range. The
// replay stops after rounds rounds; items never frozen get larger
// values in label order. Every comparison the replay made agrees with
// the returned values, so quickselect takes the same first rounds
// (all of them, when the replay runs to the end).
func adversary(n, rounds int) []float64 {
	const gas, negInf = -1, -1
	val := make([]int, n)
	for i := range val {
		val[i] = gas
	}
	solid, candidate := 0, -1
	less := func(x, y int) bool {
		if val[x] == gas && val[y] == gas {
			if x == candidate {
				val[x] = solid
			} else {
				val[y] = solid
			}
			solid++
		}
		if val[x] == gas {
			candidate = x
		} else if val[y] == gas {
			candidate = y
		}
		vx, vy := val[x], val[y]
		if vx == gas {
			vx = n
		}
		if vy == gas {
			vy = n
		}
		return vx < vy
	}
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	k, floor := n/2, negInf
	lo, hi := 0, n-1
	for r := 0; lo < hi && r < rounds; r++ {
		q := (hi - lo) / 4
		a, m, b := lo+q, lo+2*q, hi-q
		if less(s[m], s[a]) {
			s[m], s[a] = s[a], s[m]
		}
		if less(s[b], s[a]) {
			s[b], s[a] = s[a], s[b]
		}
		if less(s[b], s[m]) {
			s[b], s[m] = s[m], s[b]
		}
		s[m], s[hi] = s[hi], s[m]
		pivot := s[hi]
		ties := floor != negInf && !less(floor, pivot)
		p := lo
		for i := lo; i < hi; i++ {
			v := s[i]
			s[i], s[p] = s[p], v
			if (ties && !less(pivot, v)) || (!ties && less(v, pivot)) {
				p++
			}
		}
		s[p], s[hi] = s[hi], s[p]
		switch {
		case k == p || (ties && k < p):
			lo = hi
		case k < p:
			hi = p - 1
		default:
			lo = p + 1
			floor = pivot
		}
	}
	out := make([]float64, n)
	for i := range out {
		if val[i] == gas {
			val[i] = solid
			solid++
		}
		out[i] = float64(val[i])
	}
	return out
}

// sortMedian is the reference: the median of a sorted copy of xs.
func sortMedian(xs []float64) float64 {
	ref := append([]float64(nil), xs...)
	sort.Float64s(ref)
	n := len(ref)
	if n%2 == 1 {
		return ref[n/2]
	}
	return (ref[n/2-1] + ref[n/2]) / 2
}

func TestMedianIntoWorstCaseShapes(t *testing.T) {
	for _, n := range selectSizes {
		for name, xs := range selectShapes(n) {
			want := sortMedian(xs)
			got, err := MedianInto(make([]float64, n), xs)
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			if got != want {
				t.Fatalf("%s n=%d: MedianInto = %v, want %v", name, n, got, want)
			}
		}
	}
}

func TestQuickselectPartitionInvariant(t *testing.T) {
	for _, n := range selectSizes {
		for name, xs := range selectShapes(n) {
			ref := append([]float64(nil), xs...)
			sort.Float64s(ref)
			s := append([]float64(nil), xs...)
			mid := n / 2
			quickselect(s, mid)
			if s[mid] != ref[mid] {
				t.Fatalf("%s n=%d: s[mid] = %v, want %v", name, n, s[mid], ref[mid])
			}
			for i, v := range s {
				if (i < mid && v > s[mid]) || (i > mid && v < s[mid]) {
					t.Fatalf("%s n=%d: s[%d] = %v on the wrong side of s[mid] = %v", name, n, i, v, s[mid])
				}
			}
		}
	}
}

// minSelectTime is the fastest of runs MedianInto calls on xs.
func minSelectTime(xs []float64, runs int) time.Duration {
	scratch := make([]float64, len(xs))
	best := time.Duration(math.MaxInt64)
	for r := 0; r < runs; r++ {
		start := time.Now()
		_, _ = MedianInto(scratch, xs)
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// TestMedianIntoWorstCaseBound compares worst-case shapes with random
// input of the same length in the same process, so the bound holds on
// any host: every shape but the adversary must stay within 4× of
// random at n=1e5, and a full McIlroy adversary, which only the depth
// guard stops from going quadratic, within 3× of sorting random input.
func TestMedianIntoWorstCaseBound(t *testing.T) {
	if raceEnabled {
		t.Skip("timing bound is meaningless under the race detector")
	}
	const n, runs = 100000, 5
	shapes := selectShapes(n)
	random := minSelectTime(shapes["random"], runs)
	for name, xs := range shapes {
		if name == "adversary" {
			continue
		}
		if d := minSelectTime(xs, runs); d > 4*random {
			t.Errorf("%s n=%d: %v, more than 4× random (%v)", name, n, d, random)
		}
	}

	const m = 4512
	adv := adversary(m, m)
	rng := rand.New(rand.NewSource(1))
	sorted := make([]float64, m)
	sortTime := time.Duration(math.MaxInt64)
	for r := 0; r < runs; r++ {
		for i := range sorted {
			sorted[i] = rng.Float64()
		}
		start := time.Now()
		sort.Float64s(sorted)
		sortTime = min(sortTime, time.Since(start))
	}
	if d := minSelectTime(adv, runs); d > 3*sortTime {
		t.Errorf("adversary n=%d: %v, more than 3× a random sort (%v)", m, d, sortTime)
	}
}

// decodeFloats reads xs as little-endian IEEE-754 doubles, dropping a
// trailing partial word.
func decodeFloats(b []byte) []float64 {
	xs := make([]float64, len(b)/8)
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return xs
}

// FuzzMedianInto feeds arbitrary doubles (NaN, ±Inf, ±0, subnormals)
// through MedianInto. The seed corpus lives in
// testdata/fuzz/FuzzMedianInto; `go test` replays it.
func FuzzMedianInto(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		xs := decodeFloats(b)
		orig := append([]float64(nil), xs...)
		scratch := make([]float64, len(xs))
		got, err := MedianInto(scratch, xs)
		if len(xs) == 0 {
			if !errors.Is(err, ErrEmpty) {
				t.Fatalf("empty input: err = %v, want ErrEmpty", err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(orig[i]) {
				t.Fatalf("xs[%d] mutated: %v -> %v", i, orig[i], xs[i])
			}
		}
		if allocs := testing.AllocsPerRun(1, func() { _, _ = MedianInto(scratch, xs) }); allocs != 0 {
			t.Fatalf("MedianInto with adequate scratch allocated %v times", allocs)
		}
		for _, v := range xs {
			if math.IsNaN(v) {
				return // the result is unspecified; only safety is asserted
			}
		}
		if want := sortMedian(xs); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("MedianInto(%v) = %v, want %v", xs, got, want)
		}
	})
}

var benchMedian float64

// BenchmarkMedianInto times MedianInto (the copy into scratch plus the
// selection) at the FatTree(8) residual length.
func BenchmarkMedianInto(b *testing.B) {
	const n = 4512
	shapes := selectShapes(n)
	arms := []struct {
		name string
		xs   []float64
	}{
		{"random", shapes["random"]},
		{"quiet", shapes["quiet"]},
		{"half-zero", shapes["half-zero"]},
		{"all-zero", shapes["all-zero"]},
		{"killer", shapes["m3killer"]},
		{"adversary", adversary(n, n)},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			scratch := make([]float64, n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchMedian, _ = MedianInto(scratch, arm.xs)
			}
		})
	}
}
