package core

import (
	"math"
	"math/rand"
	"testing"

	"foces/internal/matrix"
)

func TestPaperFig2DetectsAnomaly(t *testing.T) {
	// Eq. 7: Y' = (3,3,4,3,8,12) yields Δ = (0,0,0,3,0,0), so
	// Err_max = 3 and Err_med = 0 give AI = +∞ > T (the paper's own
	// worked example).
	f := fig2FCM(t)
	y := []float64{3, 3, 4, 3, 8, 12}
	res, err := Detect(f.H, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Anomalous {
		t.Fatal("Fig 2 anomaly must be detected")
	}
	if !math.IsInf(res.Index, 1) {
		t.Fatalf("AI = %v, want +Inf", res.Index)
	}
	if !matrix.VecEqualApprox(res.Delta, []float64{0, 0, 0, 3, 0, 0}, 1e-6) {
		t.Fatalf("Δ = %v", res.Delta)
	}
	if !matrix.VecEqualApprox(res.XHat, []float64{3, 1, 8}, 1e-6) {
		t.Fatalf("X̂ = %v, want (3,1,8)", res.XHat)
	}
	if res.ErrMax != 3 || res.ErrMed > 1e-6 {
		t.Fatalf("ErrMax=%v ErrMed=%v", res.ErrMax, res.ErrMed)
	}
}

func TestPaperFig3AnomalyIsMissed(t *testing.T) {
	// Eq. 8's counterexample: Y' = (3,3,4,8,8,12) admits the exact
	// solution X̂ = (3,1,8), so FOCES sees a consistent system and must
	// NOT flag an anomaly (the paper's undetectable case).
	f := fig3FCM(t)
	y := []float64{3, 3, 4, 8, 8, 12}
	res, err := Detect(f.H, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Anomalous {
		t.Fatalf("Fig 3 counterexample must be missed, got AI=%v", res.Index)
	}
	if res.Index != 0 {
		t.Fatalf("AI = %v, want 0 for consistent system", res.Index)
	}
	if !matrix.VecEqualApprox(res.XHat, []float64{3, 1, 8}, 1e-6) {
		t.Fatalf("X̂ = %v, want (3,1,8)", res.XHat)
	}
}

func TestDetectCleanCountersScoreZero(t *testing.T) {
	f := fig2FCM(t)
	x := []float64{3, 4, 5}
	y, err := f.H.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Detect(f.H, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Anomalous || res.Index != 0 {
		t.Fatalf("clean counters flagged: %+v", res)
	}
	if !matrix.VecEqualApprox(res.XHat, x, 1e-6) {
		t.Fatalf("X̂ = %v, want %v", res.XHat, x)
	}
}

func TestDetectValidation(t *testing.T) {
	f := fig2FCM(t)
	if _, err := Detect(f.H, []float64{1, 2}, Options{}); err == nil {
		t.Fatal("dim mismatch must error")
	}
	empty, err := matrix.NewCSR(0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Detect(empty, nil, Options{})
	if err != nil || res.Anomalous {
		t.Fatalf("empty system: %+v err=%v", res, err)
	}
}

func TestThresholdControlsVerdict(t *testing.T) {
	f := fig2FCM(t)
	// Craft counters with moderate inconsistency: AI finite.
	y := []float64{3, 3, 4.5, 0.5, 8, 12}
	strict, err := Detect(f.H, y, Options{Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	lax, err := Detect(f.H, y, Options{Threshold: 1e12})
	if err != nil {
		t.Fatal(err)
	}
	if !strict.Anomalous {
		t.Fatalf("strict threshold must flag (AI=%v)", strict.Index)
	}
	if lax.Anomalous {
		t.Fatal("huge threshold must not flag")
	}
	if strict.Index != lax.Index {
		t.Fatal("threshold must not change the index")
	}
}

func TestAnomalyIndexZeroTolerance(t *testing.T) {
	if anomalyIndex(1e-9, 0, 1e-6) != 0 {
		t.Fatal("sub-tolerance max must score 0")
	}
	if !math.IsInf(anomalyIndex(5, 1e-9, 1e-6), 1) {
		t.Fatal("zero median with real max must score +Inf")
	}
	if got := anomalyIndex(6, 2, 1e-6); got != 3 {
		t.Fatalf("AI = %v, want 3", got)
	}
}

func TestDetectNoiseRobustness(t *testing.T) {
	// Gaussian read noise alone must mostly stay under the default
	// threshold: the error vector is folded-normal, so AI rarely blows
	// up (the premise of §IV-A's threshold derivation). With least
	// squares absorbing part of the noise the flag rate stays low, but
	// the key assertion is that injecting a real anomaly flags *more*
	// often than noise alone.
	f := fig2FCM(t)
	rng := rand.New(rand.NewSource(12))
	x := []float64{1000, 1200, 900}
	y0, err := f.H.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	noiseFlags, anomalyFlags := 0, 0
	const trials = 100
	for i := 0; i < trials; i++ {
		y := make([]float64, len(y0))
		for j := range y {
			y[j] = y0[j] + rng.NormFloat64()*10
		}
		res, err := Detect(f.H, y, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Anomalous {
			noiseFlags++
		}
		// Divert flow a (volume x[0]) onto the lower path: r3's counter
		// loses it, r4/r5 gain it.
		y[2] -= x[0]
		y[3] += x[0]
		y[4] += x[0]
		res, err = Detect(f.H, y, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Anomalous {
			anomalyFlags++
		}
	}
	if anomalyFlags <= noiseFlags {
		t.Fatalf("anomaly flagged %d <= noise flagged %d", anomalyFlags, noiseFlags)
	}
	if anomalyFlags < trials*9/10 {
		t.Fatalf("anomaly flagged only %d/%d", anomalyFlags, trials)
	}
}
