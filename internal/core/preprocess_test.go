package core

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"blinkradar/internal/dsp"
	"blinkradar/internal/iq"
	"blinkradar/internal/rf"
)

// applyComplex runs one complex frame through ApplyPlanes: it narrows
// the frame into float32 planes, subtracts the background and widens
// the result back into the frame (tests only).
func applyComplex(bg *BackgroundSubtractor, frame []complex128) {
	p := iq.ComplexToPlanes(frame)
	bg.ApplyPlanes(p.I, p.Q)
	p.ToComplex(frame)
}

func TestBackgroundSubtractorRemovesStatic(t *testing.T) {
	bg, err := NewBackgroundSubtractor(3, 25, 1)
	if err != nil {
		t.Fatal(err)
	}
	static := []complex128{1 + 2i, -3i, 0.5}
	frame := make([]complex128, 3)
	// Prime (25 frames at 25 fps) then verify exact cancellation.
	for i := 0; i < 30; i++ {
		copy(frame, static)
		applyComplex(bg, frame)
	}
	for b, v := range frame {
		if cmplx.Abs(v) > 1e-12 {
			t.Fatalf("bin %d residual %v after static scene", b, v)
		}
	}
	// Background accessor matches the scene.
	for b, v := range bg.Background() {
		if cmplx.Abs(v-static[b]) > 1e-9 {
			t.Fatalf("background[%d] = %v, want %v", b, v, static[b])
		}
	}
	// A dynamic component passes through untouched.
	copy(frame, static)
	frame[1] += 0.25i
	applyComplex(bg, frame)
	if cmplx.Abs(frame[1]-0.25i) > 1e-9 {
		t.Fatalf("dynamic component distorted: %v", frame[1])
	}
}

func TestBackgroundSubtractorPrimingOutputsZero(t *testing.T) {
	bg, err := NewBackgroundSubtractor(1, 25, 1)
	if err != nil {
		t.Fatal(err)
	}
	frame := []complex128{5}
	applyComplex(bg, frame)
	if frame[0] != 0 {
		t.Fatal("priming frames must be zeroed")
	}
}

func TestBackgroundSubtractorReset(t *testing.T) {
	bg, _ := NewBackgroundSubtractor(1, 25, 0.2)
	for i := 0; i < 10; i++ {
		f := []complex128{1}
		applyComplex(bg, f)
	}
	bg.Reset()
	f := []complex128{1}
	applyComplex(bg, f)
	if f[0] != 0 {
		t.Fatal("reset subtractor must re-prime")
	}
}

func TestBackgroundSubtractorErrors(t *testing.T) {
	if _, err := NewBackgroundSubtractor(0, 25, 1); err == nil {
		t.Fatal("zero bins must be rejected")
	}
	if _, err := NewBackgroundSubtractor(3, 0, 1); err == nil {
		t.Fatal("zero rate must be rejected")
	}
	if _, err := NewBackgroundSubtractor(3, 25, 0); err == nil {
		t.Fatal("zero tau must be rejected")
	}
}

func TestBackgroundSubtractorApplyPlanesZeroAllocs(t *testing.T) {
	const bins = 64
	bg, err := NewBackgroundSubtractor(bins, 25, 1) // primes over 25 frames
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	src := iq.MakePlanes32(bins)
	for i := 0; i < bins; i++ {
		src.I[i] = float32(rng.NormFloat64())
		src.Q[i] = float32(rng.NormFloat64())
	}
	work := iq.MakePlanes32(bins)
	// Each run re-primes from a Reset and carries on past the freeze, so
	// priming, the freeze and steady-state subtraction are all measured:
	// AllocsPerRun floors its per-run mean, and a single allocation in
	// any phase still shows up as at least one per run.
	allocs := testing.AllocsPerRun(50, func() {
		bg.Reset()
		for k := 0; k < 40; k++ {
			copy(work.I, src.I)
			copy(work.Q, src.Q)
			bg.ApplyPlanes(work.I, work.Q)
		}
	})
	if allocs != 0 {
		t.Fatalf("ApplyPlanes allocates %.1f objects per prime-and-run sequence, want 0", allocs)
	}
	if !bg.Primed() {
		t.Fatal("40 frames must complete the 25-frame priming window")
	}
}

// subtractBackground64 is the float64 loopback background subtraction
// the planes path replaced, kept as the oracle: the complex mean of the
// first prime frames is frozen and subtracted from every later frame,
// and priming frames come out zeroed.
func subtractBackground64(m *rf.FrameMatrix, tauSec float64) [][]complex128 {
	prime := int(tauSec * m.FrameRate)
	if prime < 1 {
		prime = 1
	}
	sum := make([]complex128, m.NumBins())
	mean := make([]complex128, m.NumBins())
	out := make([][]complex128, m.NumFrames())
	for k, frame := range m.Data {
		out[k] = make([]complex128, len(frame))
		if k < prime {
			for b, v := range frame {
				sum[b] += v
			}
			if k == prime-1 {
				for b, s := range sum {
					mean[b] = s / complex(float64(prime), 0)
				}
			}
			continue
		}
		for b, v := range frame {
			out[k][b] = v - mean[b]
		}
	}
	return out
}

func TestPreprocessMatrixMatchesFloat64Oracle(t *testing.T) {
	// Static clutter two to three orders of magnitude above the motion
	// the subtraction must preserve: the regime where narrowing to
	// float32 costs the most, since the output is a small difference of
	// large narrowed values.
	const frames, bins = 200, 48
	m, err := rf.NewFrameMatrix(frames, bins, 25, 0.0107)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	clutter := make([]complex128, bins)
	for b := range clutter {
		clutter[b] = cmplx.Rect(20+30*rng.Float64(), 2*math.Pi*rng.Float64())
	}
	for k, row := range m.Data {
		tt := float64(k) / m.FrameRate
		for b := range row {
			row[b] = clutter[b] + complex(rng.NormFloat64()*0.004, rng.NormFloat64()*0.004)
		}
		row[20] += cmplx.Rect(0.05, 0.4*math.Sin(2*math.Pi*0.25*tt))
	}
	cfg := DefaultConfig()
	got, err := PreprocessMatrix(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	want := subtractBackground64(m, cfg.BackgroundTauSec)
	var inPeak, outPeak, maxErr float64
	for k := range m.Data {
		for b := range m.Data[k] {
			inPeak = math.Max(inPeak, cmplx.Abs(m.Data[k][b]))
			outPeak = math.Max(outPeak, cmplx.Abs(want[k][b]))
			maxErr = math.Max(maxErr, cmplx.Abs(got.Data[k][b]-want[k][b]))
		}
	}
	if outPeak > inPeak/100 {
		t.Fatalf("clutter does not dominate: output peak %g vs input peak %g", outPeak, inPeak)
	}
	// DESIGN.md §13: float32 planes vs the float64 oracle within 1e-5 of
	// the input peak magnitude.
	if budget := 1e-5 * inPeak; maxErr > budget {
		t.Fatalf("planes path error %g exceeds the 1e-5 input-relative budget %g (input peak %g)", maxErr, budget, inPeak)
	}
	// Priming frames are zero on both paths, exactly.
	for k := 0; k < int(cfg.BackgroundTauSec*m.FrameRate); k++ {
		for b, v := range got.Data[k] {
			if v != 0 {
				t.Fatalf("priming frame %d bin %d = %v, want 0", k, b, v)
			}
		}
	}
}

func TestPreprocessMatrixLeavesInputIntact(t *testing.T) {
	m, _ := rf.NewFrameMatrix(60, 20, 25, 0.01)
	rng := rand.New(rand.NewSource(1))
	for k := range m.Data {
		for b := range m.Data[k] {
			m.Data[k][b] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	before := m.Data[10][5]
	out, err := PreprocessMatrix(DefaultConfig(), m)
	if err != nil {
		t.Fatal(err)
	}
	if m.Data[10][5] != before {
		t.Fatal("PreprocessMatrix modified its input")
	}
	if out == m {
		t.Fatal("PreprocessMatrix must return a copy")
	}
}

func TestCascadeFilterImprovesSNR(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 1024
	clean := make([]float64, n)
	for i := range clean {
		d := (float64(i) - 400) / 60
		clean[i] = math.Exp(-0.5 * d * d)
	}
	noisy := make([]float64, n)
	for i := range noisy {
		noisy[i] = clean[i] + rng.NormFloat64()*0.1
	}
	filtered, err := CascadeFilter(noisy, 26, 0.04, 50)
	if err != nil {
		t.Fatal(err)
	}
	before := dsp.SNRdB(clean, noisy)
	after := dsp.SNRdB(clean, filtered)
	if after < before+6 {
		t.Fatalf("cascade gain %.1f dB (from %.1f to %.1f), want > 6 dB", after-before, before, after)
	}
}

func TestBackgroundSubtractorPartialPriming(t *testing.T) {
	// A capture shorter than the priming window must report the mean of
	// the frames actually seen, not a partial sum scaled by the full
	// window length (the old estimator skewed exactly this way).
	bg, err := NewBackgroundSubtractor(2, 25, 1) // primes over 25 frames
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		f := []complex128{complex(float64(i), 0), 4 - 2i}
		applyComplex(bg, f)
	}
	if bg.Primed() {
		t.Fatal("5 of 25 frames must not complete priming")
	}
	got := bg.Background()
	// Bin 0 saw 0..4, mean 2; bin 1 saw a constant.
	if cmplx.Abs(got[0]-2) > 1e-12 {
		t.Fatalf("partial background[0] = %v, want 2", got[0])
	}
	if cmplx.Abs(got[1]-(4-2i)) > 1e-12 {
		t.Fatalf("partial background[1] = %v, want (4-2i)", got[1])
	}
	// Empty subtractor reports zeros, not NaNs.
	bg.Reset()
	for _, v := range bg.Background() {
		if v != 0 {
			t.Fatalf("empty background must be zero, got %v", v)
		}
	}
}

func TestPreprocessorResetMidPriming(t *testing.T) {
	// Restarting the pipeline while the clutter estimate is still
	// priming must discard the partial accumulation entirely: the next
	// window re-primes from scratch and the frozen estimate reflects
	// only post-reset frames. A stale partial sum here would offset
	// every bin for the rest of the session.
	bg, err := NewBackgroundSubtractor(2, 25, DefaultConfig().BackgroundTauSec)
	if err != nil {
		t.Fatal(err)
	}
	sceneA := []complex128{10 + 10i, -7}
	sceneB := []complex128{1 + 2i, 3 - 4i}
	frame := make([]complex128, 2)
	// 10 of the 25 priming frames (tau 1 s at 25 fps), then restart.
	for i := 0; i < 10; i++ {
		copy(frame, sceneA)
		applyComplex(bg, frame)
	}
	if bg.Primed() {
		t.Fatal("10 of 25 frames must not complete priming")
	}
	bg.Reset()
	if bg.seen != 0 {
		t.Fatalf("reset mid-prime left seen = %d, want 0", bg.seen)
	}
	// The full window must re-prime: every one of the next 25 frames is
	// part of the new estimate and comes back zeroed.
	for i := 0; i < 25; i++ {
		copy(frame, sceneB)
		applyComplex(bg, frame)
		for b, v := range frame {
			if v != 0 {
				t.Fatalf("re-priming frame %d bin %d = %v, want 0", i, b, v)
			}
		}
	}
	if !bg.Primed() {
		t.Fatal("25 post-reset frames must complete priming")
	}
	// The frozen estimate is scene B alone — scene A's partial sum must
	// not leak in — so a scene-B frame cancels exactly.
	for b, v := range bg.Background() {
		if cmplx.Abs(v-sceneB[b]) > 1e-12 {
			t.Fatalf("background[%d] = %v, want %v (pre-reset frames leaked)", b, v, sceneB[b])
		}
	}
	copy(frame, sceneB)
	applyComplex(bg, frame)
	for b, v := range frame {
		if cmplx.Abs(v) > 1e-12 {
			t.Fatalf("bin %d residual %v after reset and re-prime", b, v)
		}
	}
}

func TestCascadeReuse(t *testing.T) {
	c, err := NewCascade(26, 0.04, 50)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	x := make([]float64, 512)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want, err := CascadeFilter(x, 26, 0.04, 50)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, len(x))
	// Repeated application with reused buffers matches the one-shot
	// helper, and the steady state allocates nothing.
	for i := 0; i < 3; i++ {
		if err := c.Apply(dst, x); err != nil {
			t.Fatal(err)
		}
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("sample %d = %g, want %g", i, dst[i], want[i])
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := c.Apply(dst, x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Cascade.Apply allocates %.1f objects/run, want 0", allocs)
	}
}

func TestCascadeFilterErrors(t *testing.T) {
	if _, err := CascadeFilter([]float64{1, 2}, 0, 0.1, 5); err == nil {
		t.Fatal("bad FIR order must be rejected")
	}
	if _, err := CascadeFilter([]float64{1, 2}, 8, 0.1, 0); err == nil {
		t.Fatal("bad smoothing window must be rejected")
	}
}
