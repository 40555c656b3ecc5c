package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// ladder is the set of percentiles a timing may be reported at.
var ladder = []float64{50, 90, 99, 99.9, 99.99}

// tailPercentile returns the highest percentile of the ladder that has
// at least ten of n samples beyond it, and false when even the median
// does not. A timing is only reported at percentiles this allows.
func tailPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range ladder {
		// Samples ranked above the nearest-rank p-th percentile; the
		// epsilon keeps 99.9% of 10000 from rounding up past 9990.
		if n-int(math.Ceil(p/100*float64(n)-1e-9)) >= 10 {
			best, ok = p, true
		}
	}
	return best, ok
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// littleWait is Little's law solved for the wait: with a mean of depth
// items in the system and throughput items leaving per second, each
// item spends depth/throughput seconds there.
func littleWait(depth, throughput float64) float64 {
	if throughput <= 0 {
		return 0
	}
	return depth / throughput
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap collects garbage and returns the bytes of live heap.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// nap blocks the calling thread for about d without spinning. The Go
// timer would round a sub-millisecond sleep up to a millisecond or more,
// which is far coarser than the frame spacing the generators keep.
func nap(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
