package dsp

import "fmt"

// MovingAverage smooths x with a centred moving-average window of the
// given size and returns a new slice of the same length. Window edges
// shrink symmetrically near the boundaries so no samples are lost. The
// paper's preprocessing cascade uses a 50-point smoothing filter after
// the FIR stage.
func MovingAverage(x []float64, window int) ([]float64, error) {
	if err := validateLength("smoothing window", window); err != nil {
		return nil, err
	}
	n := len(x)
	out := make([]float64, n)
	if n == 0 {
		return out, nil
	}
	half := window / 2
	// Prefix sums give O(n) smoothing independent of window size.
	prefix := make([]float64, n+1)
	for i, v := range x {
		prefix[i+1] = prefix[i] + v
	}
	for i := 0; i < n; i++ {
		lo := i - half
		hi := i + half
		if lo < 0 {
			lo = 0
		}
		if hi >= n {
			hi = n - 1
		}
		out[i] = (prefix[hi+1] - prefix[lo]) / float64(hi-lo+1)
	}
	return out, nil
}

// MovingAverageInto smooths x into dst with the same centred,
// edge-shrinking window as MovingAverage, performing no allocations: the
// window sum is maintained incrementally instead of through a prefix
// array. dst must have the same length as x and must not alias it.
//
//blinkradar:hotpath
func MovingAverageInto(dst, x []float64, window int) error {
	if err := validateLength("smoothing window", window); err != nil {
		return err
	}
	n := len(x)
	if len(dst) != n {
		return errSampleCount(len(dst), n)
	}
	if n == 0 {
		return nil
	}
	if &dst[0] == &x[0] {
		return errAliased("MovingAverageInto")
	}
	half := window / 2
	lo, hi := 0, half
	if hi >= n {
		hi = n - 1
	}
	var sum float64
	for i := lo; i <= hi; i++ {
		sum += x[i]
	}
	dst[0] = sum / float64(hi-lo+1)
	for i := 1; i < n; i++ {
		if nhi := i + half; nhi < n && nhi > hi {
			sum += x[nhi]
			hi = nhi
		}
		if nlo := i - half; nlo > lo {
			sum -= x[lo]
			lo = nlo
		}
		dst[i] = sum / float64(hi-lo+1)
	}
	return nil
}

// ExponentialSmoother is a streaming first-order IIR smoother
// y[k] = alpha*x[k] + (1-alpha)*y[k-1]. The zero value is invalid; use
// NewExponentialSmoother.
type ExponentialSmoother struct {
	alpha  float64
	value  float64
	primed bool
}

// NewExponentialSmoother returns a smoother with coefficient alpha in
// (0, 1]. Smaller alpha smooths more aggressively.
func NewExponentialSmoother(alpha float64) (*ExponentialSmoother, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("dsp: alpha must be in (0, 1], got %g", alpha)
	}
	return &ExponentialSmoother{alpha: alpha}, nil
}

// Push feeds one sample and returns the smoothed value. The first sample
// initialises the state directly to avoid a start-up transient.
func (s *ExponentialSmoother) Push(v float64) float64 {
	if !s.primed {
		s.value = v
		s.primed = true
		return v
	}
	s.value += s.alpha * (v - s.value)
	return s.value
}

// Value returns the current smoothed value (zero before the first Push).
func (s *ExponentialSmoother) Value() float64 { return s.value }

// Reset clears the smoother state.
func (s *ExponentialSmoother) Reset() {
	s.value = 0
	s.primed = false
}

// SlidingWindow is a fixed-capacity streaming window that maintains the
// running mean and variance of the most recent samples in O(1) per push.
// It backs the LEVD threshold estimate (5x the no-blink sigma) and the
// adaptive restart logic in the tracker.
type SlidingWindow struct {
	buf   []float64
	pos   int
	count int
	sum   float64
	sumSq float64
}

// NewSlidingWindow returns a window holding up to capacity samples.
func NewSlidingWindow(capacity int) (*SlidingWindow, error) {
	if err := validateLength("window capacity", capacity); err != nil {
		return nil, err
	}
	return &SlidingWindow{buf: make([]float64, capacity)}, nil
}

// Push adds a sample, evicting the oldest if the window is full.
func (w *SlidingWindow) Push(v float64) {
	if w.count == len(w.buf) {
		old := w.buf[w.pos]
		w.sum -= old
		w.sumSq -= old * old
	} else {
		w.count++
	}
	w.buf[w.pos] = v
	w.sum += v
	w.sumSq += v * v
	w.pos = (w.pos + 1) % len(w.buf)
}

// Len reports the number of samples currently held.
func (w *SlidingWindow) Len() int { return w.count }

// Full reports whether the window has reached its capacity.
func (w *SlidingWindow) Full() bool { return w.count == len(w.buf) }

// Mean returns the mean of the held samples (0 when empty).
func (w *SlidingWindow) Mean() float64 {
	if w.count == 0 {
		return 0
	}
	return w.sum / float64(w.count)
}

// Variance returns the population variance of the held samples. Floating
// point cancellation is clamped at zero.
func (w *SlidingWindow) Variance() float64 {
	if w.count == 0 {
		return 0
	}
	m := w.Mean()
	v := w.sumSq/float64(w.count) - m*m
	if v < 0 {
		v = 0
	}
	return v
}

// Std returns the population standard deviation of the held samples.
func (w *SlidingWindow) Std() float64 {
	v := w.Variance()
	if v <= 0 {
		return 0
	}
	return sqrt(v)
}

// Values returns the samples currently held, oldest first.
func (w *SlidingWindow) Values() []float64 {
	out := make([]float64, 0, w.count)
	start := w.pos - w.count
	for i := 0; i < w.count; i++ {
		idx := start + i
		if idx < 0 {
			idx += len(w.buf)
		}
		out = append(out, w.buf[idx%len(w.buf)])
	}
	return out
}

// Reset empties the window.
func (w *SlidingWindow) Reset() {
	w.pos = 0
	w.count = 0
	w.sum = 0
	w.sumSq = 0
}
