package main

import (
	"bytes"
	"io"
	"math/rand"
	"runtime"
	"time"

	"blinkradar/internal/chaos"
	"blinkradar/internal/session"
)

// fleet-churn: reconnect storms at capacity.
const (
	// churnCaptures recordings of churnCaptureSec seconds each give one
	// track of connections; the last quarter of the tracks carry chaos
	// faults.
	churnCaptures   = 48
	churnCaptureSec = 60
	// A connection lasts segMin..segMax frames; the next one resumes
	// after skipping up to skipMax frames.
	segMin, segMax = 400, 800
	skipMax        = 100
	// churnWarm frames are sent, in total per session on average, before
	// timing starts.
	churnWarm = 100
)

// churnFaults are the link faults of the faulted tracks, in turn.
var churnFaults = []string{"drop=0.02,burst=3", "dup=0.01,reorder=0.01", "nan=0.01"}

// segment is the wire stream of one connection and its reference.
type segment struct {
	capIdx int
	wire   []byte
	frames int
	ref    *reference
}

// churnSession is one session's generator state.
type churnSession struct {
	fd       *feeder
	log      *blinkLog
	track    []*segment
	seg      int
	limit    int     // frames to send on this connection
	submitAt []int64 // ns since base at which each frame's decode started
	recycled bool    // this connection's session came from the pool
	draining bool
	done     bool
}

// churnFleet is one set-up of fleet-churn.
type churnFleet struct {
	caps     []*capture
	tracks   [][]*segment
	segments []*segment
	sessions []*churnSession
	sink     *blinkSink
	mgr      *session.Manager
	heapKB   float64
}

// buildTracks cuts one track of segments from each capture, encoding
// the last quarter through a seeded chaos injector.
func buildTracks(rng *rand.Rand) ([]*capture, [][]*segment, error) {
	specs := corpusSpecs(rng, churnCaptures, churnCaptureSec)
	caps := make([]*capture, len(specs))
	tracks := make([][]*segment, len(specs))
	for t, spec := range specs {
		sc, cp, err := generate(spec)
		if err != nil {
			return nil, nil, err
		}
		caps[t] = cp
		var fault *chaos.Config
		if faulted := t - len(specs)*3/4; faulted >= 0 {
			fc, err := chaos.ParseSpec(churnFaults[faulted%len(churnFaults)])
			if err != nil {
				return nil, nil, err
			}
			fault = &fc
		}
		for pos := rng.Intn(skipMax + 1); pos+segMin <= cp.frames; {
			n := min(segMin+rng.Intn(segMax-segMin+1), cp.frames-pos)
			seg := &segment{capIdx: t, frames: n}
			if fault == nil {
				seg.wire = cp.span(pos, n)
			} else {
				fault.Seed = rng.Int63()
				inj, err := chaos.New(*fault)
				if err != nil {
					return nil, nil, err
				}
				if seg.wire, seg.frames, err = encodeFrames(sc.Frames.Data[pos:pos+n], pos, inj); err != nil {
					return nil, nil, err
				}
			}
			tracks[t] = append(tracks[t], seg)
			pos += n + rng.Intn(skipMax+1)
		}
	}
	return caps, tracks, nil
}

func setupChurn(cfg runConfig, base time.Time, tr *tracer) (*churnFleet, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	caps, tracks, err := buildTracks(rng)
	if err != nil {
		return nil, err
	}
	f := &churnFleet{caps: caps, tracks: tracks}
	for _, t := range tracks {
		f.segments = append(f.segments, t...)
	}
	if err := runReferences(len(f.segments), runtime.GOMAXPROCS(0), func(i int) (err error) {
		f.segments[i].ref, err = runReference(bytes.NewReader(f.segments[i].wire), refOptions{})
		return err
	}); err != nil {
		return nil, err
	}
	// Sessions start at a seeded segment of their track, the first
	// connection cut short at a seeded point, so reconnects stagger.
	f.sessions = make([]*churnSession, fleetSessions)
	for s := range f.sessions {
		track := tracks[s%len(tracks)]
		cs := &churnSession{
			fd:       &feeder{id: sessionID(s), sess: int32(s)},
			track:    track,
			seg:      rng.Intn(len(track)),
			submitAt: make([]int64, segMax*2),
		}
		cs.limit = segMin/4 + rng.Intn(track[cs.seg].frames-segMin/4+1)
		cs.fd.connect(track[cs.seg].wire)
		f.sessions[s] = cs
	}
	heap0 := liveHeap()
	f.sink = newSink(base)
	mgr, _, err := newFleet(f.sink)
	if err != nil {
		return nil, err
	}
	f.mgr = mgr
	for s, cs := range f.sessions {
		cs.log = f.sink.log(cs.fd.id)
		if err := timedCall(tr, spAttach, int32(s), func() error { return mgr.Attach(cs.fd.id) }); err != nil {
			mgr.Close()
			return nil, err
		}
	}
	f.heapKB = float64(liveHeap()-heap0) / fleetSessions / 1024
	return f, nil
}

// churnGen is the closed-loop generator over a churn fleet.
type churnGen struct {
	f     *churnFleet
	base  time.Time
	res   *result
	e2e   *endToEnd
	lag   float64
	start int64 // blinks emitted by frames sent from here on are timed
	tr    *tracer
	sl    *slicer
	late  []float64
	sent  uint64
	// Connections checked and failed, by whether their session was
	// recycled from the pool.
	conns, bad map[bool]int
}

// pass visits every session once and reports whether any made progress.
func (g *churnGen) pass(stopping bool) (progress bool) {
	mgr := g.f.mgr
	for s, cs := range g.f.sessions {
		if cs.done {
			continue
		}
		st, err := mgr.SessionStats(cs.fd.id)
		if err != nil {
			g.res.fail(uint64(cs.fd.sent), "session %s: %v", cs.fd.id, err)
			cs.done = true
			continue
		}
		admitted := int64(time.Since(g.base))
		if stopping && !cs.draining {
			cs.limit, cs.draining = cs.fd.sent, true
		}
		if cs.draining {
			if st.Queued == 0 && st.Submitted == uint64(cs.fd.sent) {
				g.reconnect(s, cs, stopping)
				progress = true
			}
			continue
		}
		n := min(outstandingMax-int(st.Queued), cs.limit-cs.fd.sent)
		for k := 0; k < n; k++ {
			now := int64(time.Since(g.base))
			cs.submitAt[cs.fd.sent] = now
			var str *tracer
			if g.tr != nil {
				g.late = append(g.late, float64(now-admitted)/1e6)
				if g.sl.traced(now) && s%sampledEvery == 0 {
					str = g.tr
				}
			}
			if err := cs.fd.step(mgr, str); err != nil {
				g.res.fail(1, "%v", err)
			}
			g.sent++
			progress = true
		}
		if cs.fd.sent == cs.limit {
			cs.draining = true
		}
	}
	return progress
}

// reconnect closes a drained connection: detach, check it against its
// reference, and — unless the run is stopping — attach again under the
// same ID for the next segment.
func (g *churnGen) reconnect(s int, cs *churnSession, stopping bool) {
	mgr := g.f.mgr
	var st session.SessionStats
	err := timedCall(g.tr, spDetach, int32(s), func() (err error) {
		st, err = mgr.Detach(cs.fd.id)
		return err
	})
	seg := cs.track[cs.seg]
	g.res.attempted += uint64(cs.fd.sent)
	if err == nil {
		err = checkConn(st, cs.fd.sent, cs.fd.gaps, seg.ref, cs.log.events)
	}
	g.conns[cs.recycled]++
	g.e2e.f1.add(seg.ref.score(g.f.caps[seg.capIdx].truth, 0, cs.fd.sent, cs.log.events, g.lag))
	if err != nil {
		g.bad[cs.recycled]++
		g.res.fail(uint64(cs.fd.sent), "session %s segment %d: %v", cs.fd.id, cs.seg, err)
	} else {
		// Only a connection that matches its reference maps each blink
		// to the frame that emitted it.
		for i, at := range cs.log.at {
			if sub := cs.submitAt[seg.ref.emitAt[i]]; sub >= g.start {
				g.e2e.latMs = append(g.e2e.latMs, float64(at-sub)/1e6)
			}
		}
	}
	cs.log.reset()
	if stopping {
		cs.done = true
		return
	}
	cs.seg = (cs.seg + 1) % len(cs.track)
	next := cs.track[cs.seg]
	cs.limit, cs.draining, cs.recycled = next.frames, false, true
	cs.fd.connect(next.wire)
	if err := timedCall(g.tr, spAttach, int32(s), func() error { return mgr.Attach(cs.fd.id) }); err != nil {
		g.res.fail(0, "re-attach %s: %v", cs.fd.id, err)
		cs.done = true
	}
}

// resetCheck feeds each track's segments through one Monitor, Reset
// between segments as the session pool recycles it, and counts the
// segments whose events differ from a fresh Monitor's. It explains gate
// failures on recycled sessions.
func resetCheck(tracks [][]*segment) (diverged, total int, err error) {
	bad := make([]int, len(tracks))
	err = runReferences(len(tracks), runtime.GOMAXPROCS(0), func(t int) error {
		mon, err := newMonitor()
		if err != nil {
			return err
		}
		for i, seg := range tracks[t] {
			ref, err := runReference(bytes.NewReader(seg.wire), refOptions{recycled: mon})
			if err != nil {
				return err
			}
			if i > 0 && ref.checkServed(seg.frames, seg.ref.events) != nil {
				bad[t]++
			}
		}
		return nil
	})
	for t, b := range bad {
		diverged += b
		total += len(tracks[t]) - 1
	}
	return diverged, total, err
}

// run drives passes until until reports true, napping when a pass finds
// every session's queue full.
func (g *churnGen) run(until func() bool, stopping bool) {
	for !until() {
		if !g.pass(stopping) {
			nap(50 * time.Microsecond)
		}
	}
}

func runChurn(cfg runConfig) (*result, error) {
	base := time.Now()
	var tr *tracer
	if cfg.traced {
		tr = &tracer{base: base}
	}
	res := &result{}
	e2e := &endToEnd{}
	lag, err := deliveryLag()
	if err != nil {
		return nil, err
	}
	var f *churnFleet
	var g *churnGen
	repeats := setupRepeats
	if cfg.traced {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		if f != nil {
			f.mgr.Close()
			f = nil
		}
		t0 := time.Now()
		if f, err = setupChurn(cfg, base, tr); err != nil {
			return nil, err
		}
		// Warm-up: run the closed loop until the fleet has sent churnWarm
		// frames per session; its connections are checked like any other.
		g = &churnGen{f: f, base: base, res: &result{}, e2e: &endToEnd{}, lag: lag, start: 1 << 62,
			conns: make(map[bool]int), bad: make(map[bool]int)}
		g.run(func() bool { return g.sent >= churnWarm*fleetSessions }, false)
		e2e.setupS = append(e2e.setupS, time.Since(t0).Seconds())
		e2e.heapKB = append(e2e.heapKB, f.heapKB)
	}
	defer f.mgr.Close()
	mgr := f.mgr
	// Keep the warm-up's verdicts, not its latencies or scores.
	res.attempted, res.failed, res.problems = g.res.attempted, g.res.failed, g.res.problems
	g.res, g.e2e = res, e2e
	res.note("%d sessions over %d tracks of %d connections in all", fleetSessions, len(f.tracks), len(f.segments))

	var smp *sampler
	start := int64(time.Since(base))
	if cfg.traced {
		smp = startSampler(mgr, base, 5*time.Millisecond)
		g.tr, g.sl = tr, newSlicer(mgr, start, 250*time.Millisecond)
	}
	g.start = start
	st0 := mgr.Stats()
	cpu0 := cpuTime()
	end := start + int64(cfg.seconds)
	g.run(func() bool { return int64(time.Since(base)) >= end }, false)
	stop := int64(time.Since(base))
	cpu1, st1 := cpuTime(), mgr.Stats()
	if cfg.traced {
		g.sl.close()
	}
	e2e.wall = time.Duration(stop - start)
	e2e.cpu = cpu1 - cpu0
	e2e.frames = st1.Processed - st0.Processed
	res.note("%d reconnects in the timed phase", st1.Attaches-st0.Attaches)

	// Drain and check every open connection.
	remaining := func() bool {
		for _, cs := range f.sessions {
			if !cs.done {
				return false
			}
		}
		return true
	}
	g.run(remaining, true)
	if cfg.traced {
		smp.halt()
	}
	res.note("gate: %d of %d connections on fresh sessions and %d of %d on recycled sessions diverged",
		g.bad[false], g.conns[false], g.bad[true], g.conns[true])
	diverged, total, err := resetCheck(f.tracks)
	if err != nil {
		return nil, err
	}
	res.note("pool check: a Monitor recycled with Reset differs from a fresh one on %d of %d segments", diverged, total)
	if !cfg.traced {
		e2e.report(res)
		return res, nil
	}
	lr := &layerRun{tr: tr, smp: smp, sl: g.sl, lateMs: g.late}
	lr.stats = mgr.Stats()
	lr.wireBytesPerFrame = float64(f.caps[0].frameSize)
	lr.throughput = float64(e2e.frames) / e2e.wall.Seconds()
	lr.cpuNsPerFrame = float64(e2e.cpu.Nanoseconds()) / float64(max(e2e.frames, 1))
	var streams []io.Reader
	var sess []int32
	for i, seg := range f.segments {
		lr.counts.add(seg.ref.counts)
		streams = append(streams, bytes.NewReader(seg.wire))
		sess = append(sess, int32(i))
	}
	if lr.led, err = runLedger(tr, streams, sess, refOptions{}); err != nil {
		return nil, err
	}
	lr.report(res, cfg)
	return res, nil
}
