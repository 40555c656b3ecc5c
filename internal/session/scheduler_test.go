package session

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"blinkradar/internal/obs"
)

// readyCount reports how many times s sits on its shard's ready list.
func readyCount(sh *shard, s *Session) int {
	sh.rqMu.Lock()
	defer sh.rqMu.Unlock()
	n := 0
	for _, r := range sh.ready {
		if r == s {
			n++
		}
	}
	return n
}

// TestSchedulerNoLostWakeup is the ready list's liveness check. Every
// stream submits one frame and waits for the worker to feed it before
// sending the next, so every stream on a shard can be idle at once: a
// frame stranded by a lost wakeup (a submit racing the worker's
// clear-then-recheck) would never be fed, and its stream would miss the
// deadline. Jittered pauses sweep the submit across the worker's
// drain, clear and re-check steps.
func TestSchedulerNoLostWakeup(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 2
	m := newTestManager(t, cfg)
	const (
		streams = 8
		rounds  = 10
		frames  = 40
	)
	sessions := make([]*Session, streams)
	ids := make([]string, streams)
	for i := range ids {
		ids[i] = "wake-" + string(rune('a'+i))
		if err := m.Attach(ids[i]); err != nil {
			t.Fatal(err)
		}
		sessions[i] = lookup(t, m, ids[i])
	}
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		errs := make(chan error, streams)
		for i := range ids {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(round*streams + i)))
				frame := testFrame(16, i)
				s := sessions[i]
				for f := 0; f < frames; f++ {
					want := s.processed.Load() + 1
					if err := submit(m, ids[i], frame); err != nil {
						errs <- err
						return
					}
					deadline := time.Now().Add(5 * time.Second)
					for s.processed.Load() < want {
						if time.Now().After(deadline) {
							errs <- errors.New(ids[i] + ": frame never fed (lost wakeup)")
							return
						}
						time.Sleep(time.Duration(rng.Intn(50)) * time.Microsecond)
					}
					if rng.Intn(2) == 0 {
						time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
					}
				}
			}(i)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	waitFor(t, "last pops", func() bool { return m.Stats().Queued == 0 })
	st := m.Stats()
	if want := uint64(streams * rounds * frames); st.Frames != want || st.Processed != want {
		t.Fatalf("accounting after stress: %+v, want %d frames all processed", st, want)
	}
}

// TestSchedulerFairness checks the round-robin bound: a session with a
// full queue gets one DrainBatchFrames batch, then goes to the back of
// the ready list behind a shard-mate that became ready meanwhile. The
// worker is parked on each session's feed lock in turn, so the count is
// exact.
func TestSchedulerFairness(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 1
	cfg.QueueFrames = 64
	cfg.DrainBatchFrames = 4
	m := newTestManager(t, cfg)
	for _, id := range []string{"busy", "quiet"} {
		if err := m.Attach(id); err != nil {
			t.Fatal(err)
		}
	}
	busy, quiet := lookup(t, m, "busy"), lookup(t, m, "quiet")
	frame := testFrame(16, 4)

	busy.feedMu.Lock()
	quiet.feedMu.Lock()
	// The worker picks busy up and parks on its feed lock; the rest of
	// its frames queue behind the first.
	for i := 0; i < cfg.QueueFrames; i++ {
		if err := submit(m, "busy", frame); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "worker to take busy off the ready list", func() bool {
		return readyCount(m.shards[0], busy) == 0
	})
	if err := submit(m, "quiet", frame); err != nil {
		t.Fatal(err)
	}
	busy.feedMu.Unlock()
	// One batch of busy, then busy is requeued behind quiet; the round
	// that takes quiet off the list parks the worker on quiet first.
	waitFor(t, "worker to take quiet", func() bool {
		return readyCount(m.shards[0], quiet) == 0
	})
	got := busy.processed.Load()
	quiet.feedMu.Unlock()
	if got != uint64(cfg.DrainBatchFrames) {
		t.Fatalf("busy fed %d frames ahead of its shard-mate's one, want one batch of %d", got, cfg.DrainBatchFrames)
	}
	waitFor(t, "both drained", func() bool {
		return quiet.processed.Load() == 1 && busy.processed.Load() == uint64(cfg.QueueFrames)
	})
}

// TestRecycledSessionOnReadyList detaches a session while it waits on
// the ready list and re-attaches its pooled state under a new ID before
// the worker gets to it: the list must hold it exactly once, and the
// new stream's frames must each be fed exactly once.
func TestRecycledSessionOnReadyList(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 1
	m := newTestManager(t, cfg)
	for _, id := range []string{"blocker", "first"} {
		if err := m.Attach(id); err != nil {
			t.Fatal(err)
		}
	}
	blocker, s := lookup(t, m, "blocker"), lookup(t, m, "first")
	frame := testFrame(16, 8)
	sh := m.shards[0]

	// Park the worker on blocker so "first" stays on the ready list.
	blocker.feedMu.Lock()
	if err := submit(m, "blocker", frame); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "worker to take blocker", func() bool {
		return readyCount(sh, blocker) == 0 && blocker.scheduled.Load()
	})
	for i := 0; i < 3; i++ {
		if err := submit(m, "first", frame); err != nil {
			t.Fatal(err)
		}
	}
	if n := readyCount(sh, s); n != 1 {
		t.Fatalf("session on the ready list %d times, want 1", n)
	}
	final, err := m.Detach("first")
	if err != nil {
		t.Fatal(err)
	}
	if final.Dropped != 3 || final.Processed != 0 {
		t.Fatalf("detach accounting %+v, want 3 queued frames dropped", final)
	}
	if err := m.Attach("second"); err != nil {
		t.Fatal(err)
	}
	if lookup(t, m, "second") != s {
		t.Fatal("re-attach did not recycle the detached session")
	}
	const n = 5
	for i := 0; i < n; i++ {
		if err := submit(m, "second", frame); err != nil {
			t.Fatal(err)
		}
	}
	if c := readyCount(sh, s); c != 1 {
		blocker.feedMu.Unlock()
		t.Fatalf("recycled session on the ready list %d times, want 1", c)
	}
	blocker.feedMu.Unlock()
	waitFor(t, "recycled session drained", func() bool {
		st, err := m.SessionStats("second")
		return err == nil && st.Processed == n && st.Queued == 0 && !s.scheduled.Load()
	})
	if st, _ := m.SessionStats("second"); st.Submitted != n || st.Processed != n || st.Dropped != 0 {
		t.Fatalf("recycled session accounting %+v, want %d submitted and fed once each", st, n)
	}
	if st := m.Stats(); st.Queued != 0 || st.Frames != st.Processed+st.Dropped {
		t.Fatalf("fleet accounting %+v", st)
	}
}

// TestDetachDropAccountingExact races submitters against detach and
// re-attach of the same IDs. Every frame a detach discards must reach
// the fleet's Dropped count and leave the shard's queued count, so once
// the traffic stops the books balance exactly and every shard's backlog
// gauge returns to 0.
func TestDetachDropAccountingExact(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig()
	cfg.Shards = 2
	cfg.QueueFrames = 8
	cfg.Registry = reg
	m := newTestManager(t, cfg)
	ids := make([]string, 8)
	for i := range ids {
		ids[i] = "flap-" + string(rune('a'+i))
		if err := m.Attach(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var submitters, churners sync.WaitGroup
	for w := 0; w < 4; w++ {
		submitters.Add(1)
		go func(w int) {
			defer submitters.Done()
			frame := testFrame(16, w)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				err := submit(m, ids[(w+i)%len(ids)], frame)
				if err != nil && !errors.Is(err, ErrSessionNotFound) {
					panic(err)
				}
			}
		}(w)
	}
	for c := 0; c < 2; c++ {
		churners.Add(1)
		go func(c int) {
			defer churners.Done()
			for i := 0; i < 300; i++ {
				id := ids[(c+2*i)%len(ids)]
				if _, err := m.Detach(id); err == nil {
					for m.Attach(id) != nil {
						time.Sleep(time.Microsecond)
					}
				}
			}
		}(c)
	}
	churners.Wait()
	close(stop)
	submitters.Wait()

	// Frames are counted as processed before they leave the backlog, so
	// once it reads empty every fed frame is on the books.
	waitFor(t, "backlog drain", func() bool { return m.Stats().Queued == 0 })
	st := m.Stats()
	if st.Frames != st.Processed+st.Dropped+st.Queued {
		t.Fatalf("at quiesce Frames %d != Processed %d + Dropped %d + Queued %d",
			st.Frames, st.Processed, st.Dropped, st.Queued)
	}
	if st.Dropped == 0 {
		t.Fatal("no frame was dropped or discarded; the stress did not reach the detach path")
	}
	for _, id := range ids {
		if _, err := m.Detach(id); err != nil {
			t.Fatal(err)
		}
	}
	st = m.Stats()
	if st.Queued != 0 || st.Frames != st.Processed+st.Dropped {
		t.Fatalf("after detaching every session: %+v", st)
	}
	for _, sh := range m.shards {
		g := reg.Gauge(shardGaugeName(sh.idx) + "_queued_frames")
		waitFor(t, "shard backlog gauge to read 0", func() bool { return g.Value() == 0 })
	}
}
