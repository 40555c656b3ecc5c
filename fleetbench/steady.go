package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"blinkradar/internal/session"
)

// fleet-steady: the open-loop day of a fleet node.
const (
	// steadyRate is the offered load in frames per second: 512 streams
	// at 25 fps sped up 3.906 times. On a 2-vCPU machine the open loop
	// drops frames near 200 000 frames/s (half of fleet-churn's
	// capacity), and between 90 000 and 160 000 the median blink latency
	// sits on the edge of the reselection bursts' recovery and moves by
	// half from run to run; at 50 000 it stays clear of them.
	steadyRate = 50000.0
	// steadyWarm frames per session are sent before timing starts: the
	// 50-frame cold start plus the first reselection at frame 125.
	steadyWarm = 200
	// steadyCaptures distinct recordings back the 512 streams, each
	// stream starting at its own offset of up to steadyMaxOffset frames.
	steadyCaptures  = 48
	steadyMaxOffset = 500
)

// steadyFleet is one set-up of fleet-steady.
type steadyFleet struct {
	sched   steadySchedule
	caps    []*capture
	capOf   []int
	streams [][]byte
	refs    []*reference
	sink    *blinkSink
	mgr     *session.Manager
	feeders []*feeder
	heapKB  float64
}

func sessionID(i int) string { return fmt.Sprintf("sess-%03d", i) }

// setupSteady generates the corpus, runs the reference pass, attaches
// every session and warms it up.
func setupSteady(cfg runConfig, base time.Time, tr *tracer) (*steadyFleet, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	period := time.Second * fleetSessions / time.Duration(steadyRate)
	f := &steadyFleet{sched: newSteadySchedule(rng, fleetSessions, period)}
	need := steadyMaxOffset + steadyWarm + f.sched.rounds(0, cfg.seconds) + 1
	caps, err := generateAll(corpusSpecs(rng, steadyCaptures, float64(need)/fps))
	if err != nil {
		return nil, err
	}
	f.caps = caps
	f.capOf = make([]int, fleetSessions)
	f.streams = make([][]byte, fleetSessions)
	for s := range f.streams {
		f.capOf[s] = s % steadyCaptures
		n := steadyWarm + f.sched.rounds(s, cfg.seconds)
		f.streams[s] = caps[f.capOf[s]].span(rng.Intn(steadyMaxOffset), n)
	}
	f.refs = make([]*reference, fleetSessions)
	if err := runReferences(fleetSessions, runtime.GOMAXPROCS(0), func(i int) (err error) {
		f.refs[i], err = runReference(bytes.NewReader(f.streams[i]), refOptions{})
		return err
	}); err != nil {
		return nil, err
	}

	f.feeders = make([]*feeder, fleetSessions)
	for s := range f.feeders {
		f.feeders[s] = &feeder{id: sessionID(s), sess: int32(s)}
		f.feeders[s].connect(f.streams[s])
	}
	heap0 := liveHeap()
	f.sink = newSink(base)
	mgr, _, err := newFleet(f.sink)
	if err != nil {
		return nil, err
	}
	f.mgr = mgr
	for s, fd := range f.feeders {
		f.sink.log(fd.id)
		if err := timedCall(tr, spAttach, int32(s), func() error { return mgr.Attach(fd.id) }); err != nil {
			mgr.Close()
			return nil, err
		}
	}
	// Warm-up: the first steadyWarm frames of every stream, closed loop,
	// never more than outstandingMax queued per session.
	for sent := 0; sent < steadyWarm; {
		n := min(outstandingMax/2, steadyWarm-sent)
		for _, fd := range f.feeders {
			for k := 0; k < n; k++ {
				if err := fd.step(mgr, nil); err != nil {
					mgr.Close()
					return nil, err
				}
			}
		}
		sent += n
		if err := waitDrained(mgr, time.Minute); err != nil {
			mgr.Close()
			return nil, err
		}
	}
	f.heapKB = float64(liveHeap()-heap0) / fleetSessions / 1024
	return f, nil
}

func runSteady(cfg runConfig) (*result, error) {
	base := time.Now()
	var tr *tracer
	if cfg.traced {
		tr = &tracer{base: base}
	}
	e2e := &endToEnd{}
	var f *steadyFleet
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
		var err error
		if f, err = setupSteady(cfg, base, tr); err != nil {
			return nil, err
		}
		e2e.setupS = append(e2e.setupS, time.Since(t0).Seconds())
		e2e.heapKB = append(e2e.heapKB, f.heapKB)
	}
	defer f.mgr.Close()
	mgr := f.mgr
	res := &result{}
	res.note("%d sessions offered %.0f frames/s (%.3fx real time each), %d captures, period %s",
		fleetSessions, steadyRate, steadyRate/fleetSessions/fps, len(f.caps), f.sched.period)

	// Timed phase: send every frame on schedule, never waiting for the
	// system.
	var lr *layerRun
	var smp *sampler
	var sl *slicer
	start := int64(time.Since(base)) + int64(time.Millisecond)
	end := start + int64(cfg.seconds)
	if cfg.traced {
		lr = &layerRun{tr: tr}
		smp = startSampler(mgr, base, 5*time.Millisecond)
		sl = newSlicer(mgr, start, 250*time.Millisecond)
	}
	nap(time.Duration(start - int64(time.Since(base))))
	cpu0, done0 := cpuTime(), mgr.Stats().Processed
	var sendErr error
rounds:
	for r := 0; ; r++ {
		for _, s := range f.sched.order {
			due := start + int64(f.sched.due(s, r))
			if due >= end {
				break rounds
			}
			now := int64(time.Since(base))
			if now < due {
				nap(time.Duration(due - now))
				now = int64(time.Since(base))
			}
			var str *tracer
			if cfg.traced {
				lr.lateMs = append(lr.lateMs, float64(now-due)/1e6)
				if sl.traced(now) && s%sampledEvery == 0 {
					str = tr
				}
			}
			if err := f.feeders[s].step(mgr, str); err != nil && sendErr == nil {
				sendErr = err
			}
		}
	}
	stop := int64(time.Since(base))
	cpu1, done1 := cpuTime(), mgr.Stats().Processed
	if cfg.traced {
		sl.close()
	}
	e2e.wall = time.Duration(stop - start)
	e2e.cpu = cpu1 - cpu0
	e2e.frames = done1 - done0
	if err := waitDrained(mgr, time.Minute); err != nil {
		res.fail(0, "%v", err)
	}
	if cfg.traced {
		smp.halt()
	}

	// Gate: every session's accounting and served blinks.
	lag, err := deliveryLag()
	if err != nil {
		return nil, err
	}
	if sendErr != nil {
		res.fail(0, "%v", sendErr)
	}
	for s, fd := range f.feeders {
		res.attempted += uint64(fd.sent)
		st, err := mgr.SessionStats(fd.id)
		if err != nil {
			res.fail(uint64(fd.sent), "session %s: %v", fd.id, err)
			continue
		}
		log := f.sink.log(fd.id)
		e2e.f1.add(f.refs[s].score(f.caps[f.capOf[s]].truth, 0, fd.sent, log.events, lag))
		if err := checkConn(st, fd.sent, fd.gaps, f.refs[s], log.events); err != nil {
			res.fail(uint64(fd.sent), "session %s: %v", fd.id, err)
			continue
		}
		for i := range log.events {
			k := int(f.refs[s].emitAt[i])
			if k < steadyWarm {
				continue
			}
			due := start + int64(f.sched.due(s, k-steadyWarm))
			e2e.latMs = append(e2e.latMs, float64(log.at[i]-due)/1e6)
		}
	}
	for s, fd := range f.feeders {
		if err := timedCall(tr, spDetach, int32(s), func() error { _, err := mgr.Detach(fd.id); return err }); err != nil {
			res.fail(0, "detach %s: %v", fd.id, err)
		}
	}

	if !cfg.traced {
		e2e.report(res)
		return res, nil
	}
	lr.smp, lr.sl = smp, sl
	lr.stats = mgr.Stats()
	lr.wireBytesPerFrame = float64(f.caps[0].frameSize)
	lr.throughput = float64(e2e.frames) / e2e.wall.Seconds()
	lr.cpuNsPerFrame = float64(e2e.cpu.Nanoseconds()) / float64(max(e2e.frames, 1))
	var streams []io.Reader
	var sess []int32
	for s := range f.refs {
		lr.counts.add(f.refs[s].counts)
		if s%sampledEvery == 0 {
			streams = append(streams, bytes.NewReader(f.streams[s]))
			sess = append(sess, int32(s))
		}
	}
	if lr.led, err = runLedger(tr, streams, sess, refOptions{}); err != nil {
		return nil, err
	}
	lr.report(res, cfg)
	return res, nil
}
