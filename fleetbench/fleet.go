package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"blinkradar"
	"blinkradar/internal/obs"
	"blinkradar/internal/session"
	"blinkradar/internal/transport"
)

const (
	// fleetSessions is the session count of both fleet workloads.
	fleetSessions = 512
	// outstandingMax keeps a session's unprocessed frames below half of
	// the 64-frame queue radard -ingest gives it, so the benchmark never
	// causes its own drops.
	outstandingMax = 31
	// sampledEvery: the generator keeps spans for every 8th session.
	sampledEvery = 8
	// setupRepeats is how often an untraced run sets up; setup_s is the
	// median.
	setupRepeats = 3
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	outDir   string
}

// newFleet builds the manager radard -ingest runs: its defaults (shards
// = GOMAXPROCS, 64-frame queues, no rate limit, 60 s window, a metrics
// registry) for 150-bin streams, with every blink sent to sink.
func newFleet(sink *blinkSink) (*session.Manager, *obs.Registry, error) {
	reg := obs.NewRegistry()
	mgr, err := session.NewManager(session.Config{
		NumBins:   numBins,
		FrameRate: fps,
		WindowSec: windowSec,
		Registry:  reg,
		OnBlink:   sink.onBlink,
	})
	return mgr, reg, err
}

// blinkSink records every served blink with its arrival time, by
// session ID. OnBlink runs on the shard workers under the session's feed
// lock; a log is read or reset only once its session is drained or
// detached, which orders those accesses after the worker's appends.
type blinkSink struct {
	base time.Time
	mu   sync.Mutex
	logs map[string]*blinkLog
}

type blinkLog struct {
	events []blinkradar.BlinkEvent
	at     []int64 // ns since base
}

func newSink(base time.Time) *blinkSink {
	return &blinkSink{base: base, logs: make(map[string]*blinkLog)}
}

// log returns the log for id, creating it.
func (k *blinkSink) log(id string) *blinkLog {
	k.mu.Lock()
	defer k.mu.Unlock()
	l := k.logs[id]
	if l == nil {
		l = &blinkLog{}
		k.logs[id] = l
	}
	return l
}

func (k *blinkSink) onBlink(id string, ev blinkradar.BlinkEvent) {
	at := int64(time.Since(k.base))
	k.mu.Lock()
	l := k.logs[id]
	k.mu.Unlock()
	if l != nil {
		l.events = append(l.events, ev)
		l.at = append(l.at, at)
	}
}

func (l *blinkLog) reset() {
	l.events = l.events[:0]
	l.at = l.at[:0]
}

// feeder runs the body of ingest.ServeStream in-process for one
// session: decode the next frame of the connection's wire bytes, report
// a sequence gap, submit the planes.
type feeder struct {
	id      string
	sess    int32
	rd      bytes.Reader
	dec     *transport.Decoder
	lastSeq uint64
	haveSeq bool
	gaps    uint64 // frames reported through NoteGap on this connection
	sent    int    // frames submitted on this connection
}

// connect starts a new connection over wire.
func (f *feeder) connect(wire []byte) {
	f.rd.Reset(wire)
	f.dec = transport.NewDecoder(&f.rd)
	f.dec.SetExpectedBins(numBins)
	f.haveSeq, f.lastSeq, f.gaps, f.sent = false, 0, 0, 0
}

// step sends one frame. With a tracer it records the decode and the
// submit under one generator span.
func (f *feeder) step(mgr *session.Manager, tr *tracer) error {
	var t0, t1, t2 int64
	if tr != nil {
		t0 = tr.now()
	}
	fr, err := f.dec.DecodePlanes()
	if err != nil {
		return fmt.Errorf("session %s: decode frame %d: %w", f.id, f.sent, err)
	}
	if tr != nil {
		t1 = tr.now()
	}
	if f.haveSeq && fr.Seq > f.lastSeq+1 {
		missed := fr.Seq - f.lastSeq - 1
		mgr.NoteGap(f.id, missed)
		f.gaps += missed
	}
	f.lastSeq, f.haveSeq = fr.Seq, true
	if tr != nil {
		t2 = tr.now()
	}
	err = mgr.SubmitPlanes(f.id, fr.I, fr.Q)
	if tr != nil {
		t3 := tr.now()
		p := tr.add(spGenFrame, f.sess, -1, t0, t3)
		tr.add(spDecode, f.sess, p, t0, t1)
		tr.add(spSubmit, f.sess, p, t2, t3)
	}
	f.sent++
	if err != nil {
		return fmt.Errorf("session %s: submit frame %d: %w", f.id, f.sent-1, err)
	}
	return nil
}

// timedCall runs fn, recording it as a span when tr is non-nil.
func timedCall(tr *tracer, name uint8, sess int32, fn func() error) error {
	if tr == nil {
		return fn()
	}
	t0 := tr.now()
	err := fn()
	tr.add(name, sess, -1, t0, tr.now())
	return err
}

// checkConn verifies one finished connection: the manager's accounting
// of it and its served blinks against the reference. It returns nil when
// the connection is correct.
func checkConn(st session.SessionStats, sent int, gaps uint64, ref *reference, served []blinkradar.BlinkEvent) error {
	switch {
	case st.Submitted != uint64(sent):
		return fmt.Errorf("sent %d frames, manager submitted %d", sent, st.Submitted)
	case st.Processed != st.Submitted:
		return fmt.Errorf("submitted %d frames, processed %d", st.Submitted, st.Processed)
	case st.Dropped != 0 || st.Limited != 0:
		return fmt.Errorf("%d frames dropped and %d rate-limited", st.Dropped, st.Limited)
	case st.GapFrames != gaps:
		return fmt.Errorf("reported %d gap frames, manager counted %d", gaps, st.GapFrames)
	case st.AssessErrs != 0:
		return fmt.Errorf("%d feed errors", st.AssessErrs)
	}
	return ref.checkServed(sent, served)
}

// deliveryLag is the Monitor's documented event delivery lag.
func deliveryLag() (float64, error) {
	m, err := newMonitor()
	if err != nil {
		return 0, err
	}
	return m.Detector().DeliveryLagSec(), nil
}

// waitDrained waits until every submitted frame has been processed or
// dropped.
func waitDrained(mgr *session.Manager, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		st := mgr.Stats()
		if st.Processed+st.Dropped >= st.Frames && st.Queued == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("backlog of %d frames not drained within %s", st.Queued, limit)
		}
		time.Sleep(time.Millisecond)
	}
}
