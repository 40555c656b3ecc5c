package core

import (
	"fmt"

	"blinkradar/internal/dsp"
	"blinkradar/internal/iq"
	"blinkradar/internal/rf"
)

// BackgroundSubtractor removes static clutter with a per-bin loopback
// filter (Section IV-B2): each bin's complex mean over a priming window
// is estimated once and subtracted from every subsequent frame.
// Static reflections — seats, steering wheel, direct path — have a
// time-invariant delay, so a frozen estimate removes them exactly;
// motion-modulated components pass untouched. The estimate is
// deliberately NOT tracked afterwards: a slowly-adapting filter chases
// the motion trajectory itself and smears the arc geometry the tracker
// depends on. Posture drift is the tracker's and restart logic's job.
type BackgroundSubtractor struct {
	primeFrames int
	seen        int
	sum         []complex128
	// Float32 planes of the frozen mean, filled once at freeze so the
	// hot subtraction never widens.
	meanI32 []float32
	meanQ32 []float32
}

// NewBackgroundSubtractor creates a subtractor for numBins bins priming
// over tauSec seconds of frames.
func NewBackgroundSubtractor(numBins int, frameRate, tauSec float64) (*BackgroundSubtractor, error) {
	if numBins <= 0 {
		return nil, fmt.Errorf("core: numBins must be positive, got %d", numBins)
	}
	if frameRate <= 0 || tauSec <= 0 {
		return nil, fmt.Errorf("core: frame rate and tau must be positive, got %g, %g", frameRate, tauSec)
	}
	prime := int(tauSec * frameRate)
	if prime < 1 {
		prime = 1
	}
	return &BackgroundSubtractor{
		primeFrames: prime,
		sum:         make([]complex128, numBins),
		meanI32:     make([]float32, numBins),
		meanQ32:     make([]float32, numBins),
	}, nil
}

// ApplyPlanes subtracts the background estimate from one frame of
// float32 I/Q planes in place; both planes must hold numBins samples.
// During the priming window the frame is accumulated into the estimate
// (narrowed samples, float64 sums) and the output is zeroed (the
// detector's cold start covers this period anyway). The estimate
// divides by the frames actually accumulated, so a Reset mid-prime or a
// capture that ends before the window fills never leaves a partial sum
// scaled as if the window had completed.
//
//blinkradar:hotpath
func (b *BackgroundSubtractor) ApplyPlanes(pi, pq []float32) {
	if b.seen < b.primeFrames {
		b.seen++
		for i := range pi {
			b.sum[i] += complex(float64(pi[i]), float64(pq[i]))
			pi[i] = 0
			pq[i] = 0
		}
		if b.seen == b.primeFrames {
			b.freeze()
		}
		return
	}
	for i := range pi {
		pi[i] -= b.meanI32[i]
		pq[i] -= b.meanQ32[i]
	}
}

// freeze finalises the clutter estimate from the priming sum into the
// float32 mean planes.
//
//blinkradar:convert
func (b *BackgroundSubtractor) freeze() {
	inv := complex(1/float64(b.seen), 0)
	for i, s := range b.sum {
		m := s * inv
		b.meanI32[i] = float32(real(m))
		b.meanQ32[i] = float32(imag(m))
	}
}

// Primed reports whether the priming window has completed and the
// clutter estimate is frozen.
func (b *BackgroundSubtractor) Primed() bool { return b.seen >= b.primeFrames }

// Background returns a copy of the current clutter estimate at full
// precision: the mean of the frames accumulated so far (zeros when
// none), which after priming is the frozen estimate the float32 planes
// were narrowed from.
func (b *BackgroundSubtractor) Background() []complex128 {
	out := make([]complex128, len(b.sum))
	if b.seen == 0 {
		return out
	}
	inv := complex(1/float64(b.seen), 0)
	for i, s := range b.sum {
		out[i] = s * inv
	}
	return out
}

// Reset clears the clutter estimate so the next frames re-prime it.
func (b *BackgroundSubtractor) Reset() {
	for i := range b.sum {
		b.sum[i] = 0
		b.meanI32[i] = 0
		b.meanQ32[i] = 0
	}
	b.seen = 0
}

// PreprocessMatrix background-subtracts a copy of the matrix and
// returns it, leaving the input untouched. This is the offline
// convenience used by experiments and figures. Each frame runs through
// the streaming detector's own stage: it is narrowed into float32
// planes, ApplyPlanes subtracts the clutter estimate, and the result is
// widened back, so the figures are scored by the code that serves.
func PreprocessMatrix(cfg Config, m *rf.FrameMatrix) (*rf.FrameMatrix, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	bg, err := NewBackgroundSubtractor(m.NumBins(), m.FrameRate, cfg.BackgroundTauSec)
	if err != nil {
		return nil, err
	}
	out := m.Clone()
	planes := iq.MakePlanes32(m.NumBins())
	for _, frame := range out.Data {
		planes.FromComplex(frame)
		bg.ApplyPlanes(planes.I, planes.Q)
		planes.ToComplex(frame)
	}
	return out, nil
}

// Cascade is the reusable form of the paper's Fig. 7 noise-reduction
// cascade: an order-N Hamming-window low-pass FIR followed by a
// moving-average smoother. Construct once, then Apply repeatedly with
// caller-owned buffers — the hot path performs no allocations. Not safe
// for concurrent use (internal buffers are shared across calls).
//
// The windowed-sinc FIR is linear-phase, so Apply runs the fused
// folded-tap single-pass kernel (dsp.FusedCascade): half the multiplies
// of the direct form and one traversal of the series instead of two.
// The output matches the sequential FIR+smoother pipeline within
// fold-average rounding (≤1e-12 relative; see DESIGN.md §13).
type Cascade struct {
	fused  *dsp.FusedCascade
	smooth int
	// The fused kernel cannot run in place (its FIR stage writes the
	// output while later samples still read the input), so aliased
	// calls detour through a reusable copy of the input.
	scratch []float64
}

// NewCascade designs the cascade's FIR stage once so repeated
// applications avoid redesign and window allocations.
func NewCascade(order int, cutoff float64, smooth int) (*Cascade, error) {
	if smooth <= 0 {
		return nil, fmt.Errorf("core: smoothing window must be positive, got %d", smooth)
	}
	fused, err := dsp.NewFusedCascade(order, cutoff, smooth)
	if err != nil {
		return nil, err
	}
	return &Cascade{fused: fused, smooth: smooth}, nil
}

// Apply runs the cascade over x into dst (same length; dst may alias x).
func (c *Cascade) Apply(dst, x []float64) error {
	if len(dst) != len(x) {
		return fmt.Errorf("core: destination has %d samples, input %d", len(dst), len(x))
	}
	if len(x) > 0 && &dst[0] == &x[0] {
		if cap(c.scratch) < len(x) {
			c.scratch = make([]float64, len(x))
		}
		mid := c.scratch[:len(x)]
		copy(mid, x)
		return c.fused.ApplyInto(dst, mid)
	}
	return c.fused.ApplyInto(dst, x)
}

// Fused exposes the underlying fused kernel for callers that drive the
// float32 SoA path directly.
func (c *Cascade) Fused() *dsp.FusedCascade { return c.fused }

// CascadeFilter applies the paper's Fig. 7 noise-reduction cascade — an
// order-`order` Hamming-window low-pass FIR followed by a `smooth`-point
// moving average — to a real-valued waveform. The paper applies it to
// the received baseband fast-time signal; experiments use it to
// regenerate the before/after SNR comparison. For repeated application
// use Cascade, which reuses its filter design and scratch.
func CascadeFilter(x []float64, order int, cutoff float64, smooth int) ([]float64, error) {
	c, err := NewCascade(order, cutoff, smooth)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(x))
	if err := c.Apply(out, x); err != nil {
		return nil, err
	}
	return out, nil
}
