package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"blinkradar/internal/ingest"
	"blinkradar/internal/obs"
	"blinkradar/internal/rf"
	"blinkradar/internal/session"
	"blinkradar/internal/transport"
)

// wire-ingest: the production listener over loopback TCP.
const (
	wireConns = 2
	// Each connection sends one long capture stitched from
	// wirePieces recordings of wirePieceSec seconds, looping over it.
	wirePieces, wirePieceSec = 24, 40
	wireWarm                 = 200
	// wireLedgerFrames of each connection's stream go through the traced
	// reference pass.
	wireLedgerFrames = 75000
	// probeCount sessions attach, send probeFrames frames and detach on the
	// serving manager in a traced run, timing the session calls that
	// ingest.ServeStream makes out of the benchmark's sight.
	probeCount, probeFrames = 16, 64
)

// wireConn is one client connection: a capture sent over and over.
type wireConn struct {
	conn    net.Conn
	id      string
	cap     *capture
	pos     int // next capture frame to send
	emitted int
	writes  []wireWrite
	log     *blinkLog
}

// wireWrite is one socket write: the stream position of its first frame
// and when the write started.
type wireWrite struct {
	first int
	at    int64
}

// sentAt is when the frame at stream position p was written.
func (c *wireConn) sentAt(p int) int64 {
	i := sort.Search(len(c.writes), func(i int) bool { return c.writes[i].first > p }) - 1
	return c.writes[i].at
}

// drain waits until the server has taken every frame sent on c out of
// the socket and processed it.
func (c *wireConn) drain(mgr *session.Manager, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		st, err := mgr.SessionStats(c.id)
		if err != nil {
			return err
		}
		if st.Submitted == uint64(c.emitted) && st.Queued == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("connection %s: %d of %d frames submitted, %d queued after %s", c.id, st.Submitted, c.emitted, st.Queued, limit)
		}
		time.Sleep(time.Millisecond)
	}
}

// loopReader replays a capture's wire bytes for a given number of frames.
type loopReader struct {
	wire []byte
	off  int
	left int
}

func newLoopReader(c *capture, frames int) *loopReader {
	return &loopReader{wire: c.wire, left: frames * c.frameSize}
}

func (l *loopReader) Read(p []byte) (int, error) {
	if l.left == 0 {
		return 0, io.EOF
	}
	if l.off == len(l.wire) {
		l.off = 0
	}
	n := copy(p[:min(len(p), l.left)], l.wire[l.off:])
	l.off += n
	l.left -= n
	return n, nil
}

// detachLog collects the final stats ingest hands to OnDetach.
type detachLog struct {
	mu    sync.Mutex
	stats map[string]session.SessionStats
}

func (d *detachLog) put(id string, st session.SessionStats) {
	d.mu.Lock()
	d.stats[id] = st
	d.mu.Unlock()
}

// wait returns id's final stats once its connection has detached.
func (d *detachLog) wait(id string, limit time.Duration) (session.SessionStats, error) {
	deadline := time.Now().Add(limit)
	for {
		d.mu.Lock()
		st, ok := d.stats[id]
		d.mu.Unlock()
		if ok {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("session %s did not detach within %s", id, limit)
		}
		time.Sleep(time.Millisecond)
	}
}

// wireFleet is one set-up of wire-ingest.
type wireFleet struct {
	caps   []*capture
	mgr    *session.Manager
	reg    *obs.Registry
	sink   *blinkSink
	detach *detachLog
	conns  []*wireConn
	idle   []*wireConn // placement leftovers, open until the end
	stop   context.CancelFunc
	served chan error
	heapKB float64
	hello  transport.StreamHello
	addr   string
}

// close ends the listener and the manager.
func (f *wireFleet) close() {
	for _, c := range append(f.conns, f.idle...) {
		c.conn.Close()
	}
	f.stop()
	<-f.served
	f.mgr.Close()
}

func setupWire(cfg runConfig, base time.Time) (*wireFleet, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	specs := corpusSpecs(rng, wireConns*wirePieces, wirePieceSec)
	f := &wireFleet{sink: newSink(base), detach: &detachLog{stats: make(map[string]session.SessionStats)}}
	for i := 0; i < wireConns; i++ {
		c, err := generateLong(specs[i*wirePieces : (i+1)*wirePieces])
		if err != nil {
			return nil, err
		}
		f.caps = append(f.caps, c)
	}
	ch := rf.DefaultChannelConfig()
	f.hello = transport.StreamHello{FrameRate: ch.FrameRate, BinSpacing: ch.BinSpacing, NumBins: numBins}
	mgr, reg, err := newFleet(f.sink)
	if err != nil {
		return nil, err
	}
	f.mgr, f.reg = mgr, reg
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Close()
		return nil, err
	}
	f.addr = ln.Addr().String()
	ctx, stop := context.WithCancel(context.Background())
	f.stop, f.served = stop, make(chan error, 1)
	go func() {
		f.served <- ingest.Serve(ctx, ln, mgr, ingest.Options{
			NumBins:    numBins,
			OnDetach:   f.detach.put,
			Logger:     log.New(os.Stderr, "ingest: ", 0),
			StatsEvery: 10 * time.Second,
		})
	}()
	heap0 := liveHeap()
	if err := f.dialAll(); err != nil {
		f.close()
		return nil, err
	}
	for sent := 0; sent < wireWarm; sent += outstandingMax / 2 {
		for _, c := range f.conns {
			if err := f.send(c, outstandingMax/2, nil, 0); err != nil {
				f.close()
				return nil, err
			}
		}
		for _, c := range f.conns {
			if err := c.drain(mgr, time.Minute); err != nil {
				f.close()
				return nil, err
			}
		}
	}
	// Idle placement leftovers are sessions like any other.
	f.heapKB = float64(liveHeap()-heap0) / float64(len(f.conns)+len(f.idle)) / 1024
	return f, nil
}

// dialAll connects the clients. A session's shard is a hash of its
// address, so the client dials until the connections sit on distinct
// shards: the workload then measures both shards, not a coin toss. A
// connection landing on a taken shard stays open and idle until the run
// ends, because closing it would put its session in the pool and the
// next connection would be served by a recycled one.
func (f *wireFleet) dialAll() error {
	taken := make(map[int]bool)
	for len(f.conns) < wireConns {
		if len(f.idle) == 64 {
			return errors.New("could not place the connections on distinct shards")
		}
		before := f.shardSessions()
		conn, err := net.Dial("tcp", f.addr)
		if err != nil {
			return err
		}
		c := &wireConn{conn: conn, id: conn.LocalAddr().String()}
		if err := transport.EncodeHello(conn, f.hello); err != nil {
			conn.Close()
			return err
		}
		for f.mgr.Sessions() < len(f.conns)+len(f.idle)+1 {
			time.Sleep(100 * time.Microsecond)
		}
		shard := -1
		for i, n := range f.shardSessions() {
			if n > before[i] {
				shard = i
			}
		}
		if taken[shard] {
			f.idle = append(f.idle, c)
			continue
		}
		taken[shard] = true
		c.cap = f.caps[len(f.conns)]
		c.log = f.sink.log(c.id)
		f.conns = append(f.conns, c)
	}
	return nil
}

// shardSessions reads the manager's per-shard session gauges.
func (f *wireFleet) shardSessions() []float64 {
	out := make([]float64, runtime.GOMAXPROCS(0))
	for i := range out {
		out[i] = f.reg.Gauge(fmt.Sprintf("session_shard%d_sessions", i)).Value()
	}
	return out
}

// send writes the next n frames of c's capture (fewer at the end of the
// capture, where the stream loops back to its first frame).
func (f *wireFleet) send(c *wireConn, n int, lr *layerRun, admitted int64) error {
	n = min(n, c.cap.frames-c.pos)
	at := int64(time.Since(f.sink.base))
	if lr != nil {
		lr.lateMs = append(lr.lateMs, float64(at-admitted)/1e6)
	}
	c.writes = append(c.writes, wireWrite{first: c.emitted, at: at})
	if _, err := c.conn.Write(c.cap.span(c.pos, n)); err != nil {
		return fmt.Errorf("connection %s: %w", c.id, err)
	}
	c.emitted += n
	c.pos = (c.pos + n) % c.cap.frames
	return nil
}

func runWire(cfg runConfig) (*result, error) {
	base := time.Now()
	e2e := &endToEnd{}
	var f *wireFleet
	repeats := setupRepeats
	if cfg.traced {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		if f != nil {
			f.close()
			f = nil
		}
		t0 := time.Now()
		var err error
		if f, err = setupWire(cfg, base); err != nil {
			return nil, err
		}
		e2e.setupS = append(e2e.setupS, time.Since(t0).Seconds())
		e2e.heapKB = append(e2e.heapKB, f.heapKB)
	}
	mgr := f.mgr
	res := &result{}
	res.note("%d connections on distinct shards, %d idle placement leftovers, %d-frame captures looped", wireConns, len(f.idle), f.caps[0].frames)

	var lr *layerRun
	start := int64(time.Since(base))
	end := start + int64(cfg.seconds)
	if cfg.traced {
		tr := &tracer{base: base}
		lr = &layerRun{tr: tr, smp: startSampler(mgr, base, 5*time.Millisecond), sl: newSlicer(mgr, start, 250*time.Millisecond)}
	}
	st0 := mgr.Stats()
	cpu0 := cpuTime()
	var sendErr error
	for sendErr == nil {
		now := int64(time.Since(base))
		if now >= end {
			break
		}
		if lr != nil {
			lr.sl.traced(now)
		}
		progress := false
		for _, c := range f.conns {
			st, err := mgr.SessionStats(c.id)
			if err != nil {
				sendErr = err
				break
			}
			inSocket := uint64(c.emitted) - st.Submitted
			if lr != nil {
				lr.readLag = append(lr.readLag, float64(inSocket))
			}
			room := outstandingMax - int(inSocket+st.Queued)
			if room < outstandingMax/2 {
				continue
			}
			if sendErr = f.send(c, room, lr, int64(time.Since(base))); sendErr != nil {
				break
			}
			progress = true
		}
		if !progress {
			nap(20 * time.Microsecond)
		}
	}
	stop := int64(time.Since(base))
	cpu1, st1 := cpuTime(), mgr.Stats()
	if lr != nil {
		lr.sl.close()
	}
	e2e.wall = time.Duration(stop - start)
	e2e.cpu = cpu1 - cpu0
	e2e.frames = st1.Processed - st0.Processed
	if sendErr != nil {
		res.fail(0, "%v", sendErr)
	}

	// Drain, hang up, and collect each connection's final stats.
	for _, c := range f.conns {
		if err := c.drain(mgr, time.Minute); err != nil {
			res.fail(0, "%v", err)
		}
	}
	if lr != nil {
		lr.smp.halt()
		lr.stats = mgr.Stats()
	}
	conns := f.conns
	finals := make([]session.SessionStats, len(conns))
	for i, c := range conns {
		c.conn.Close()
		st, err := f.detach.wait(c.id, time.Minute)
		if err != nil {
			res.fail(0, "%v", err)
		}
		finals[i] = st
	}
	f.conns = nil
	if lr != nil {
		if err := probe(mgr, f.caps[0], lr.tr); err != nil {
			res.fail(0, "probe: %v", err)
		}
	}
	f.close()

	// Only now is each stream's length known: run the references.
	lag, err := deliveryLag()
	if err != nil {
		return nil, err
	}
	refs := make([]*reference, len(conns))
	if err := runReferences(len(conns), runtime.GOMAXPROCS(0), func(i int) (err error) {
		c := conns[i]
		refs[i], err = runReference(newLoopReader(c.cap, c.emitted), refOptions{loopFrames: c.cap.frames, countFrames: c.cap.frames})
		return err
	}); err != nil {
		return nil, err
	}
	for i, c := range conns {
		res.attempted += uint64(c.emitted)
		e2e.f1.add(refs[i].score(c.cap.truth, c.cap.seconds(), c.emitted, c.log.events, lag))
		if err := checkConn(finals[i], c.emitted, 0, refs[i], c.log.events); err != nil {
			res.fail(uint64(c.emitted), "connection %s: %v", c.id, err)
			continue
		}
		for k, at := range c.log.at {
			if sent := c.sentAt(int(refs[i].emitAt[k])); sent >= start {
				e2e.latMs = append(e2e.latMs, float64(at-sent)/1e6)
			}
		}
	}
	if lr == nil {
		e2e.report(res)
		return res, nil
	}
	lr.wireBytesPerFrame = float64(f.caps[0].frameSize)
	lr.throughput = float64(e2e.frames) / e2e.wall.Seconds()
	lr.cpuNsPerFrame = float64(e2e.cpu.Nanoseconds()) / float64(max(e2e.frames, 1))
	var streams []io.Reader
	var sess []int32
	for i, c := range conns {
		lr.counts.add(refs[i].counts)
		streams = append(streams, newLoopReader(c.cap, min(c.emitted, wireLedgerFrames)))
		sess = append(sess, int32(i))
	}
	if lr.led, err = runLedger(lr.tr, streams, sess, refOptions{loopFrames: f.caps[0].frames}); err != nil {
		return nil, err
	}
	lr.report(res, cfg)
	return res, nil
}

// probe attaches probeCount sessions to the serving manager one after
// another, sends each probeFrames frames and detaches it, with spans
// around every call.
func probe(mgr *session.Manager, c *capture, tr *tracer) error {
	for i := 0; i < probeCount; i++ {
		fd := &feeder{id: fmt.Sprintf("probe-%02d", i), sess: int32(-1 - i)}
		fd.connect(c.span(0, probeFrames))
		if err := timedCall(tr, spAttach, fd.sess, func() error { return mgr.Attach(fd.id) }); err != nil {
			return err
		}
		for k := 0; k < probeFrames; k++ {
			if err := fd.step(mgr, tr); err != nil {
				return err
			}
		}
		for {
			st, err := mgr.SessionStats(fd.id)
			if err != nil {
				return err
			}
			if st.Processed == probeFrames {
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
		if err := timedCall(tr, spDetach, fd.sess, func() error { _, err := mgr.Detach(fd.id); return err }); err != nil {
			return err
		}
	}
	return nil
}
