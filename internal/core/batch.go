package core

import (
	"fmt"
	"runtime"
	"sync"

	"blinkradar/internal/rf"
)

// BatchResult is the outcome of one capture in a DetectBatch run.
type BatchResult struct {
	// Events are the blinks detected in the capture, in time order.
	Events []BlinkEvent
	// Restarts and BinSwitches are the pipeline diagnostics of the
	// capture's detector.
	Restarts, BinSwitches int
	// Err is the capture's failure, nil on success.
	Err error
}

// DetectBatch runs the full offline pipeline over N independent
// captures concurrently on a bounded worker pool (parallelism <= 0
// selects GOMAXPROCS, mirroring the experiments harness). Each capture
// gets its own detector, so results are identical to calling Detect on
// each capture serially; results are returned in input order. The
// returned error is the first per-capture failure (the remaining
// results are still populated).
func DetectBatch(cfg Config, captures []*rf.FrameMatrix, parallelism int, opts ...Option) ([]BatchResult, error) {
	results := make([]BatchResult, len(captures))
	if len(captures) == 0 {
		return results, nil
	}
	workers := parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(captures) {
		workers = len(captures)
	}
	run := func(i int) {
		m := captures[i]
		if m == nil {
			results[i] = BatchResult{Err: fmt.Errorf("core: capture %d is nil", i)}
			return
		}
		events, det, err := Detect(cfg, m, opts...)
		if err != nil {
			results[i] = BatchResult{Err: fmt.Errorf("core: capture %d: %w", i, err)}
			return
		}
		results[i] = BatchResult{
			Events:      events,
			Restarts:    det.Restarts(),
			BinSwitches: det.BinSwitches(),
		}
	}
	if workers == 1 {
		for i := range captures {
			run(i)
		}
	} else {
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					run(i)
				}
			}()
		}
		for i := range captures {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	for _, r := range results {
		if r.Err != nil {
			return results, r.Err
		}
	}
	return results, nil
}
