package main

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"blinkradar"
	"blinkradar/internal/chaos"
	"blinkradar/internal/physio"
	"blinkradar/internal/scenario"
	"blinkradar/internal/transport"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false}, {19, 0, false}, {20, 50, true}, {99, 50, true}, {100, 90, true},
		{999, 90, true}, {1000, 99, true}, {9999, 99, true}, {10000, 99.9, true}, {100000, 99.99, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	s := sortedCopy(xs)
	for p, want := range map[float64]float64{0: 1, 1: 1, 50: 50, 99: 99, 99.5: 100, 100: 100} {
		if got := percentile(s, p); got != want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", p, got, want)
		}
	}
	if xs[0] != 100 {
		t.Error("sortedCopy modified its input")
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestLittleWait(t *testing.T) {
	// 10 frames in the system, 1000 leaving per second: 10 ms each.
	if got := littleWait(10, 1000); got != 0.01 {
		t.Errorf("littleWait(10, 1000) = %g, want 0.01", got)
	}
	if got := littleWait(5, 0); got != 0 {
		t.Errorf("littleWait with no throughput = %g, want 0", got)
	}
}

func TestSteadyScheduleFromSeed(t *testing.T) {
	period := 4 * time.Millisecond
	a := newSteadySchedule(rand.New(rand.NewSource(7)), 64, period)
	b := newSteadySchedule(rand.New(rand.NewSource(7)), 64, period)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different schedules")
	}
	if c := newSteadySchedule(rand.New(rand.NewSource(8)), 64, period); reflect.DeepEqual(a.phase, c.phase) {
		t.Fatal("different seeds gave the same phases")
	}
	for i, s := range a.order {
		if a.phase[s] < 0 || a.phase[s] >= period {
			t.Errorf("session %d phase %s outside [0, %s)", s, a.phase[s], period)
		}
		if i > 0 && a.phase[a.order[i-1]] > a.phase[s] {
			t.Errorf("send order not sorted by phase at %d", i)
		}
	}
	// rounds counts exactly the frames due before the end.
	for _, d := range []time.Duration{0, time.Millisecond, 10 * time.Millisecond, time.Second} {
		for s := range a.phase {
			n := 0
			for r := 0; a.due(s, r) < d; r++ {
				n++
			}
			if got := a.rounds(s, d); got != n {
				t.Fatalf("rounds(%d, %s) = %d, want %d", s, d, got, n)
			}
		}
	}
}

func TestCorpusFromSeed(t *testing.T) {
	a := corpusSpecs(rand.New(rand.NewSource(3)), 8, 30)
	b := corpusSpecs(rand.New(rand.NewSource(3)), 8, 30)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different corpora")
	}
	kinds := map[[2]int]bool{}
	for _, s := range a {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		kinds[[2]int{int(s.Environment), int(s.State)}] = true
	}
	if len(kinds) != 4 {
		t.Errorf("corpus covers %d of the 4 environment and alertness pairs", len(kinds))
	}
}

// syntheticFrames is a cheap stand-in for a capture when only the stream
// shape matters.
func syntheticFrames(n int) [][]complex128 {
	out := make([][]complex128, n)
	for k := range out {
		out[k] = make([]complex128, numBins)
		for b := range out[k] {
			out[k][b] = complex(float64(k), float64(b))
		}
	}
	return out
}

func TestFaultedStreamFromSeed(t *testing.T) {
	frames := syntheticFrames(300)
	stream := func(seed int64) []byte {
		cfg, err := chaos.ParseSpec(churnFaults[0] + ",dup=0.05,reorder=0.05")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Seed = seed
		inj, err := chaos.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wire, _, err := encodeFrames(frames, 100, inj)
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	if !bytes.Equal(stream(5), stream(5)) {
		t.Fatal("the same fault seed gave different streams")
	}
	if bytes.Equal(stream(5), stream(6)) {
		t.Fatal("different fault seeds gave the same stream")
	}
	clean, n, err := encodeFrames(frames, 100, nil)
	if err != nil || n != len(frames) {
		t.Fatalf("clean stream: %d frames, %v", n, err)
	}
	dec := transport.NewDecoder(bytes.NewReader(clean))
	for k := range frames {
		f, err := dec.DecodePlanes()
		if err != nil || f.Seq != uint64(100+k) {
			t.Fatalf("frame %d: seq %d, %v", k, f.Seq, err)
		}
	}
}

// labStream renders a short lab capture as wire bytes.
func labStream(t *testing.T) (*capture, []byte) {
	t.Helper()
	spec := scenario.DefaultSpec()
	spec.Duration = 40
	spec.State = physio.Drowsy
	_, c, err := generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return c, c.wire
}

func TestReferenceMapsBlinksToEmittingFrames(t *testing.T) {
	c, wire := labStream(t)
	ref, err := runReference(bytes.NewReader(wire), refOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ref.frames != c.frames || len(ref.events) < 5 {
		t.Fatalf("reference fed %d of %d frames and emitted %d blinks", ref.frames, c.frames, len(ref.events))
	}
	// Feed the stream by hand: blink i must come out of frame emitAt[i].
	mon, err := newMonitor()
	if err != nil {
		t.Fatal(err)
	}
	dec := transport.NewDecoder(bytes.NewReader(wire))
	var served []int
	for p := 0; ; p++ {
		f, err := dec.DecodePlanes()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		ev, ok, _, err := mon.FeedPlanes(f.I, f.Q)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			i := len(served)
			if i >= len(ref.events) || ref.emitAt[i] != int32(p) || ref.events[i] != ev {
				t.Fatalf("blink %d came from frame %d, reference says frame %d", i, p, ref.emitAt[i])
			}
			served = append(served, p)
		}
	}
	if len(served) != len(ref.events) {
		t.Fatalf("served %d blinks, reference %d", len(served), len(ref.events))
	}
	// A prefix of the stream serves exactly the blinks its frames emitted.
	cut := int(ref.emitAt[2]) + 1
	if got := ref.prefix(cut); got != 3 {
		t.Errorf("prefix(%d) = %d, want 3", cut, got)
	}
	if err := ref.checkServed(cut, ref.events[:3]); err != nil {
		t.Errorf("exact prefix rejected: %v", err)
	}
	if err := ref.checkServed(cut, ref.events[:2]); err == nil {
		t.Error("a missing blink passed the check")
	}
	changed := append([]blinkradar.BlinkEvent(nil), ref.events[:3]...)
	changed[1].Amplitude *= 1.0001
	if err := ref.checkServed(cut, changed); err == nil {
		t.Error("a changed blink passed the check")
	}
	// Scored against its own ground truth the reference is mostly right.
	if m := ref.score(c.truth, 0, ref.frames, ref.events, 1); m.TruePositives == 0 {
		t.Errorf("no true positive in %+v", m)
	}
}

func TestCaptureTimeAcrossGaps(t *testing.T) {
	// Accepted frames 1..4 carry capture frames 10, 11, 15, 16: four
	// frames were lost between the second and third.
	acc := []int64{10, 11, 15, 16}
	for _, c := range []struct{ t, want float64 }{
		{1 / fps, 10 / fps},
		{2 / fps, 11 / fps},
		{3 / fps, 15 / fps},
		{3.5 / fps, 15.5 / fps},
		{4 / fps, 16 / fps},
	} {
		if got := captureTime(acc, c.t); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("captureTime(%g) = %g, want %g", c.t, got, c.want)
		}
	}
	truth := []physio.Blink{{Start: 1, Duration: 0.2}, {Start: 8, Duration: 0.2}}
	// Midpoints 1.1 and 8.1 s recur every 10 s: 18.1, 21.1, 28.1 and
	// 31.1 fall in [15, 32).
	got := loopTruth(truth, 10, 15, 32)
	if len(got) != 4 || got[0].Start != 18 || got[1].Start != 21 || got[2].Start != 28 || got[3].Start != 31 {
		t.Errorf("loopTruth over [15, 32) of a 10 s loop = %+v", got)
	}
}

func TestWireSentAtAndLoop(t *testing.T) {
	c := &wireConn{writes: []wireWrite{{0, 100}, {16, 200}, {40, 300}}}
	for p, want := range map[int]int64{0: 100, 15: 100, 16: 200, 39: 200, 40: 300, 70: 300} {
		if got := c.sentAt(p); got != want {
			t.Errorf("sentAt(%d) = %d, want %d", p, got, want)
		}
	}
	cp := &capture{frames: 3, frameSize: 2, wire: []byte{0, 1, 2, 3, 4, 5}}
	got, err := io.ReadAll(newLoopReader(cp, 5))
	if err != nil || !bytes.Equal(got, []byte{0, 1, 2, 3, 4, 5, 0, 1, 2, 3}) {
		t.Errorf("loop reader gave %v, %v", got, err)
	}
}
