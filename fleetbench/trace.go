package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"blinkradar/internal/obs"
	"blinkradar/internal/session"
)

// Span names. Spans wrap calls into the program from the benchmark's
// own code; nothing inside the program is instrumented.
const (
	spGenFrame uint8 = iota // one generator step for one frame
	spRefFrame              // one reference-pass step for one frame
	spDecode                // transport.Decoder.DecodePlanes
	spSubmit                // session.Manager.SubmitPlanes
	spFeed                  // blinkradar.Monitor.FeedPlanes
	spAttach                // session.Manager.Attach
	spDetach                // session.Manager.Detach
)

var spanNames = [...]string{"gen.frame", "ref.frame", "transport.DecodePlanes", "session.SubmitPlanes",
	"blinkradar.Monitor.FeedPlanes", "session.Manager.Attach", "session.Manager.Detach"}

// span is one timed call. Times are nanoseconds since the run's base.
type span struct {
	start, end int64
	parent     int32 // index of the enclosing span, -1 for none
	sess       int32
	name       uint8
}

// tracer keeps spans in memory until the run ends. It is used by one
// goroutine at a time; callers pass a nil *tracer for untraced work.
type tracer struct {
	base  time.Time
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// add records a span and returns its index.
func (t *tracer) add(name uint8, sess, parent int32, start, end int64) int32 {
	t.spans = append(t.spans, span{start: start, end: end, parent: parent, sess: sess, name: name})
	return int32(len(t.spans) - 1)
}

// durations returns the durations in nanoseconds of the spans called
// name whose parent is called parent (any parent when parent < 0).
func (t *tracer) durations(name uint8, parent int) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name != name {
			continue
		}
		if parent >= 0 && (s.parent < 0 || int(t.spans[s.parent].name) != parent) {
			continue
		}
		out = append(out, float64(s.end-s.start))
	}
	return out
}

// write stores the spans as tab-separated lines.
func (t *tracer) write(path string) error {
	return writeLines(path, "name\tstart_ns\tend_ns\tparent\tsession\n", len(t.spans), func(w *bufio.Writer, i int) {
		s := t.spans[i]
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", spanNames[s.name], s.start, s.end, s.parent, s.sess)
	})
}

// ledger is the traced single-threaded reference pass: spans around
// every decode and feed, and a registry for the core_* stage split.
type ledger struct {
	tr     *tracer
	reg    *obs.Registry
	frames int
	wall   time.Duration
}

func (l *ledger) frame(sess int32, t0, t1, t2, t3 int64) {
	p := l.tr.add(spRefFrame, sess, -1, t0, t3)
	l.tr.add(spDecode, sess, p, t0, t1)
	l.tr.add(spFeed, sess, p, t2, t3)
	l.frames++
}

// sampler records Manager.Stats at a fixed period until stopped.
type sampler struct {
	mgr   *session.Manager
	base  time.Time
	stop  chan struct{}
	done  chan struct{}
	times []int64
	stats []session.ManagerStats
}

func startSampler(mgr *session.Manager, base time.Time, every time.Duration) *sampler {
	s := &sampler{mgr: mgr, base: base, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.times = append(s.times, int64(time.Since(s.base)))
				s.stats = append(s.stats, s.mgr.Stats())
			}
		}
	}()
	return s
}

// halt stops the sampler and waits for it to exit.
func (s *sampler) halt() {
	close(s.stop)
	<-s.done
}

func (s *sampler) depths() []float64 {
	out := make([]float64, len(s.stats))
	for i, st := range s.stats {
		out[i] = float64(st.Queued)
	}
	return out
}

func (s *sampler) write(path string) error {
	return writeLines(path, "t_ns\tsessions\tqueued\tframes\tprocessed\tdropped\tlimited\n", len(s.stats), func(w *bufio.Writer, i int) {
		st := s.stats[i]
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t%d\n", s.times[i], st.Sessions, st.Queued, st.Frames, st.Processed, st.Dropped, st.Limited)
	})
}

func writeLines(path, header string, n int, line func(w *bufio.Writer, i int)) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString(header)
	for i := 0; i < n; i++ {
		line(w, i)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// slicer alternates the timed phase of a traced run between traced and
// untraced slices and keeps the CPU time and frames of each kind, so the
// cost of tracing is measured in the same run.
type slicer struct {
	mgr    *session.Manager
	start  int64
	length int64
	cur    int64
	cpu0   time.Duration
	done0  uint64
	cpu    [2]time.Duration // [untraced, traced]
	frames [2]uint64
}

func newSlicer(mgr *session.Manager, start int64, length time.Duration) *slicer {
	return &slicer{mgr: mgr, start: start, length: int64(length), cpu0: cpuTime(), done0: mgr.Stats().Processed}
}

// traced reports whether the slice holding now is traced, closing the
// previous slice when now has moved past it.
func (s *slicer) traced(now int64) bool {
	idx := (now - s.start) / s.length
	if idx != s.cur {
		s.close()
		s.cur = idx
	}
	return s.cur%2 == 1
}

func (s *slicer) close() {
	cpu, done := cpuTime(), s.mgr.Stats().Processed
	k := s.cur % 2
	s.cpu[k] += cpu - s.cpu0
	s.frames[k] += done - s.done0
	s.cpu0, s.done0 = cpu, done
}

// overheadPct is the CPU per frame of traced slices over that of
// untraced slices, as a percentage increase.
func (s *slicer) overheadPct() float64 {
	if s.frames[0] == 0 || s.frames[1] == 0 {
		return 0
	}
	u := float64(s.cpu[0]) / float64(s.frames[0])
	t := float64(s.cpu[1]) / float64(s.frames[1])
	return (t/u - 1) * 100
}
