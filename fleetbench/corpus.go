package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"blinkradar/internal/chaos"
	"blinkradar/internal/physio"
	"blinkradar/internal/scenario"
	"blinkradar/internal/transport"
	"blinkradar/internal/vehicle"
)

// Stream geometry: the paper radio's 150 range bins at 25 frames/s,
// radarsim's default, served with radard's 60 s assessment window.
const (
	numBins   = 150
	fps       = 25.0
	windowSec = 60.0
)

// capture is one generated recording, encoded once for the wire. Frame
// k carries Seq k, so a contiguous run of frames is a plain sub-slice.
type capture struct {
	truth     []physio.Blink
	frames    int
	frameSize int
	wire      []byte
}

// span returns the wire bytes of frames [from, from+n).
func (c *capture) span(from, n int) []byte {
	return c.wire[from*c.frameSize : (from+n)*c.frameSize]
}

// seconds is the capture's duration.
func (c *capture) seconds() float64 { return float64(c.frames) / fps }

// corpusSpecs draws n capture specs. Environment and alertness cycle so
// every corpus holds lab and driving, awake and drowsy captures; the
// subject, road, eye range and scenario seed come from rng.
func corpusSpecs(rng *rand.Rand, n int, seconds float64) []scenario.Spec {
	roads := vehicle.AllRoadTypes()
	specs := make([]scenario.Spec, n)
	for i := range specs {
		env, state := scenario.Lab, physio.Awake
		if i%2 == 1 {
			env = scenario.Driving
		}
		if i/2%2 == 1 {
			state = physio.Drowsy
		}
		specs[i] = scenario.Spec{
			Subject:     physio.NewSubject(1 + rng.Intn(12)),
			State:       state,
			Environment: env,
			Road:        roads[rng.Intn(len(roads))],
			Duration:    seconds,
			EyeDistance: 0.35 + 0.1*rng.Float64(),
			Seed:        rng.Int63(),
		}
	}
	return specs
}

// generate renders a spec; the raw frames are kept only as long as the
// caller needs them to build faulted streams.
func generate(spec scenario.Spec) (*scenario.Capture, *capture, error) {
	sc, err := scenario.Generate(spec)
	if err != nil {
		return nil, nil, err
	}
	if got := sc.Frames.NumBins(); got != numBins {
		return nil, nil, fmt.Errorf("capture has %d bins, want %d", got, numBins)
	}
	wire, n, err := encodeFrames(sc.Frames.Data, 0, nil)
	if err != nil {
		return nil, nil, err
	}
	return sc, &capture{truth: sc.Truth, frames: n, frameSize: len(wire) / n, wire: wire}, nil
}

// generateAll renders every spec, keeping only the encoded captures.
func generateAll(specs []scenario.Spec) ([]*capture, error) {
	caps := make([]*capture, len(specs))
	for i, s := range specs {
		_, c, err := generate(s)
		if err != nil {
			return nil, err
		}
		caps[i] = c
	}
	return caps, nil
}

// generateLong renders the specs back to back as one long capture,
// numbering frames and shifting ground truth across the joins.
func generateLong(specs []scenario.Spec) (*capture, error) {
	long := &capture{}
	for _, spec := range specs {
		sc, err := scenario.Generate(spec)
		if err != nil {
			return nil, err
		}
		wire, n, err := encodeFrames(sc.Frames.Data, long.frames, nil)
		if err != nil {
			return nil, err
		}
		for _, b := range sc.Truth {
			b.Start += float64(long.frames) / fps
			long.truth = append(long.truth, b)
		}
		long.wire = append(long.wire, wire...)
		long.frames += n
		long.frameSize = len(wire) / n
	}
	return long, nil
}

// encodeFrames encodes frames as the wire stream a radar would send,
// frame k carrying Seq first+k. A non-nil injector rewrites the stream
// (drops, duplicates, reorders, poisoned bins) exactly as a faulty link
// would deliver it. It returns the bytes and the number of frames in them.
func encodeFrames(frames [][]complex128, first int, inj *chaos.Injector) ([]byte, int, error) {
	var buf bytes.Buffer
	enc := transport.NewEncoder(&buf)
	n := 0
	emit := func(fs ...transport.Frame) error {
		for _, f := range fs {
			if err := enc.Encode(f); err != nil {
				return err
			}
			n++
		}
		return nil
	}
	for k, bins := range frames {
		seq := first + k
		f := transport.Frame{
			Seq:             uint64(seq),
			TimestampMicros: uint64(math.Round(float64(seq) * 1e6 / fps)),
			Bins:            bins,
		}
		out := []transport.Frame{f}
		if inj != nil {
			out = inj.Apply(f)
		}
		if err := emit(out...); err != nil {
			return nil, 0, err
		}
	}
	if inj != nil {
		if err := emit(inj.Flush()...); err != nil {
			return nil, 0, err
		}
	}
	if err := enc.Flush(); err != nil {
		return nil, 0, err
	}
	if n == 0 {
		return nil, 0, fmt.Errorf("empty stream")
	}
	return buf.Bytes(), n, nil
}

// steadySchedule is the open-loop plan of fleet-steady: session s sends
// its frame k (k >= warm) at start + (k-warm)*period + phase[s].
type steadySchedule struct {
	period time.Duration
	phase  []time.Duration
	order  []int // sessions by ascending phase: the send order in a round
}

// newSteadySchedule draws each session's phase within the round period.
func newSteadySchedule(rng *rand.Rand, sessions int, period time.Duration) steadySchedule {
	s := steadySchedule{period: period, phase: make([]time.Duration, sessions), order: make([]int, sessions)}
	for i := range s.phase {
		s.phase[i] = time.Duration(rng.Int63n(int64(period)))
		s.order[i] = i
	}
	sort.SliceStable(s.order, func(a, b int) bool { return s.phase[s.order[a]] < s.phase[s.order[b]] })
	return s
}

// due is when session s's round-r frame is due, relative to the start.
func (s steadySchedule) due(sess, round int) time.Duration {
	return time.Duration(round)*s.period + s.phase[sess]
}

// rounds is how many rounds of session s fall inside a run of d.
func (s steadySchedule) rounds(sess int, d time.Duration) int {
	if d <= s.phase[sess] {
		return 0
	}
	return int((d-s.phase[sess]-1)/s.period) + 1
}
