package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"blinkradar"
	"blinkradar/internal/eval"
	"blinkradar/internal/physio"
	"blinkradar/internal/transport"
)

// reference is the single-threaded answer for one connection's stream:
// a fresh Monitor fed the same bytes, with the same ingest gap rule.
type reference struct {
	events []blinkradar.BlinkEvent
	// emitAt[i] is the stream position (0-based, in wire order) of the
	// frame whose feed emitted events[i].
	emitAt []int32
	// accPos and accSeq give, for each frame the detector accepted, its
	// stream position and its capture frame index (unwrapped across
	// loops of the capture), so event times map back to capture time.
	accPos []int32
	accSeq []int64
	frames int
	counts detCounts
}

// detCounts are the detector's behaviour counters. They repeat exactly
// for a given input.
type detCounts struct {
	restarts, binSwitches, rejected, repaired, gapResets uint64
}

func (c *detCounts) add(o detCounts) {
	c.restarts += o.restarts
	c.binSwitches += o.binSwitches
	c.rejected += o.rejected
	c.repaired += o.repaired
	c.gapResets += o.gapResets
}

func readCounts(m *blinkradar.Monitor) detCounts {
	d := m.Detector()
	in := m.InputStats()
	return detCounts{
		restarts:    uint64(d.Restarts()),
		binSwitches: uint64(d.BinSwitches()),
		rejected:    in.Rejected,
		repaired:    in.RepairedBins,
		gapResets:   in.GapResets,
	}
}

// newMonitor builds the Monitor every session runs: the manager's
// defaults for this geometry.
func newMonitor() (*blinkradar.Monitor, error) {
	return blinkradar.NewMonitor(blinkradar.DefaultConfig(), numBins, fps, windowSec)
}

// refOptions tune a reference pass.
type refOptions struct {
	// loopFrames is the capture length when the stream loops over its
	// capture (Seq restarts at 0); 0 for streams that never wrap.
	loopFrames int
	// countFrames, when positive, takes the behaviour counters after
	// that many frames instead of at the end of the stream.
	countFrames int
	// ledger, when non-nil, times every call and attaches its registry.
	ledger *ledger
	sess   int32
	// recycled, when non-nil, is Reset and used instead of a fresh
	// Monitor, as the session pool does.
	recycled *blinkradar.Monitor
}

// runReference feeds a stream through a fresh Monitor on the calling
// goroutine, exactly as a session's worker would, and records what it
// emitted and where.
func runReference(r io.Reader, o refOptions) (*reference, error) {
	mon := o.recycled
	if mon != nil {
		mon.Reset()
	} else {
		var err error
		if mon, err = newMonitor(); err != nil {
			return nil, err
		}
	}
	if o.ledger != nil {
		mon.SetRegistry(o.ledger.reg)
	}
	dec := transport.NewDecoder(r)
	dec.SetExpectedBins(numBins)
	ref := &reference{}
	var lastSeq uint64
	haveSeq := false
	var wraps int64
	var accepted uint64
	for pos := 0; ; pos++ {
		if pos == o.countFrames && o.countFrames > 0 {
			ref.counts = readCounts(mon)
		}
		var t0, t1, t2 int64
		if o.ledger != nil {
			t0 = o.ledger.tr.now()
		}
		f, err := dec.DecodePlanes()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("reference decode at frame %d: %w", pos, err)
		}
		if o.ledger != nil {
			t1 = o.ledger.tr.now()
		}
		// The ingest gap rule, reset per connection like ServeStream's.
		if haveSeq && f.Seq > lastSeq+1 {
			mon.NoteGap(f.Seq - lastSeq - 1)
		}
		if haveSeq && o.loopFrames > 0 && f.Seq+uint64(o.loopFrames)/2 < lastSeq {
			wraps++
		}
		lastSeq, haveSeq = f.Seq, true
		if o.ledger != nil {
			t2 = o.ledger.tr.now()
		}
		ev, ok, _, ferr := mon.FeedPlanes(f.I, f.Q)
		if o.ledger != nil {
			o.ledger.frame(o.sess, t0, t1, t2, o.ledger.tr.now())
		}
		if ferr != nil {
			return nil, fmt.Errorf("reference feed at frame %d: %w", pos, ferr)
		}
		if a := mon.InputStats().Accepted; a != accepted {
			accepted = a
			ref.accPos = append(ref.accPos, int32(pos))
			ref.accSeq = append(ref.accSeq, wraps*int64(o.loopFrames)+int64(f.Seq))
		}
		if ok {
			ref.events = append(ref.events, ev)
			ref.emitAt = append(ref.emitAt, int32(pos))
		}
		ref.frames++
	}
	if o.countFrames <= 0 || o.countFrames >= ref.frames {
		ref.counts = readCounts(mon)
	}
	return ref, nil
}

// runReferences runs job(i) for i in [0, n) on a fixed pool of workers.
// Each job is itself single-threaded; the pool only overlaps them.
func runReferences(n, workers int, job func(i int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, workers)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := job(i); err != nil && errs[w] == nil {
					errs[w] = err
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return errors.Join(errs...)
}

// prefix is the number of reference events emitted by the first sent
// frames of the stream.
func (r *reference) prefix(sent int) int {
	n := 0
	for n < len(r.emitAt) && int(r.emitAt[n]) < sent {
		n++
	}
	return n
}

// checkServed compares what a connection served with its reference:
// after sent frames, the served events must be exactly the reference
// events those frames emitted, in order.
func (r *reference) checkServed(sent int, served []blinkradar.BlinkEvent) error {
	want := r.prefix(sent)
	if len(served) != want {
		return fmt.Errorf("served %d blinks, reference emitted %d over the %d frames sent", len(served), want, sent)
	}
	for i, ev := range served {
		if ev != r.events[i] {
			return fmt.Errorf("blink %d is %+v, reference %+v (emitted by frame %d)", i, ev, r.events[i], r.emitAt[i])
		}
	}
	return nil
}

// f1Tally pools match counts over connections.
type f1Tally struct{ tp, fp, fn int }

func (t *f1Tally) add(m eval.MatchResult) {
	t.tp += m.TruePositives
	t.fp += m.FalsePositives
	t.fn += m.FalseNegatives
}

// f1 is the pooled F1 score (0 when nothing was scored).
func (t f1Tally) f1() float64 {
	if d := 2*t.tp + t.fp + t.fn; d > 0 {
		return float64(2*t.tp) / float64(d)
	}
	return 0
}

// score matches one connection's served events against the capture's
// ground truth. Detector time counts accepted frames only, so each event
// is mapped back to capture time through the accepted frame it falls
// on; which frames sanitization accepts does not depend on the rest of
// the pipeline, so the mapping holds for served events that differ from
// the reference's. Truth and events inside the warm-up (eval.TrimWarmup after the
// connection's first frame) or too close to its last frame to have been
// delivered are left out.
func (r *reference) score(truth []physio.Blink, loopSec float64, sent int, served []blinkradar.BlinkEvent, lagSec float64) eval.MatchResult {
	nAcc := 0
	for nAcc < len(r.accPos) && int(r.accPos[nAcc]) < sent {
		nAcc++
	}
	if nAcc == 0 {
		return eval.MatchResult{}
	}
	from := float64(r.accSeq[0])/fps + eval.DefaultWarmup
	to := float64(r.accSeq[nAcc-1])/fps - lagSec
	if to <= from {
		return eval.MatchResult{}
	}
	window := eval.TrimWarmup(loopTruth(truth, loopSec, from, to), from)
	var events []blinkradar.BlinkEvent
	for _, ev := range served {
		t := captureTime(r.accSeq[:nAcc], ev.Time)
		if t >= from && t < to {
			ev.Time = t
			events = append(events, ev)
		}
	}
	return eval.Match(window, events, eval.DefaultMatchTolerance)
}

// captureTime maps a detector event time (seconds of accepted frames)
// to capture time using the capture frame index of each accepted frame.
func captureTime(accSeq []int64, t float64) float64 {
	x := t * fps
	i := int(math.Floor(x))
	if i < 1 {
		i = 1
	}
	if i > len(accSeq) {
		i = len(accSeq)
	}
	return (float64(accSeq[i-1]) + x - float64(i)) / fps
}

// loopTruth returns the ground-truth blinks whose midpoints fall in
// [from, to) of a stream that replays the capture every loopSec seconds
// (loopSec 0: played once).
func loopTruth(truth []physio.Blink, loopSec, from, to float64) []physio.Blink {
	var out []physio.Blink
	first, last := 0, 0
	if loopSec > 0 {
		first = int(math.Floor(from / loopSec))
		last = int(math.Floor(to / loopSec))
	}
	for l := first; l <= last; l++ {
		shift := float64(l) * loopSec
		for _, b := range truth {
			b.Start += shift
			if mid := b.Start + b.Duration/2; mid >= from && mid < to {
				out = append(out, b)
			}
		}
	}
	return out
}
