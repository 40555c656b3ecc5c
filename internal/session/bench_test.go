package session

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"blinkradar"
	"blinkradar/internal/iq"
)

// BenchmarkFleet measures the multi-session service layer end to end:
// 512 concurrent sessions sharded across GOMAXPROCS workers, each frame
// submitted through admission, queueing, and the full detection
// pipeline. One op is one frame through one session. The derived
// streams/core metric is how many real-time radar streams (at the
// configured frame rate) one core sustains; the allocation budget in CI
// is zero — the pool and the flat queues make the steady state
// alloc-free however many sessions churn through.
func BenchmarkFleet(b *testing.B) { benchFleet(b, 512, 512) }

// BenchmarkFleetSparse is BenchmarkFleet on a mostly idle node: 512
// sessions attached, 8 of them streaming. A worker wake must cost what
// the sessions with frames cost, not what the attached ones do, and
// idle sessions must add no allocations (the CI budget is zero). With
// only 128 frames in flight the workers sleep and wake far more often
// per frame than in BenchmarkFleet, so its ns/op is higher.
func BenchmarkFleetSparse(b *testing.B) { benchFleet(b, 512, 8) }

// benchFleet attaches sessions sessions and streams frames round-robin
// through the first streaming of them.
func benchFleet(b *testing.B, sessions, streaming int) {
	const (
		bins  = 40
		prime = 160 // frames fed per streaming session before timing starts
	)
	cfg := Config{
		NumBins:   bins,
		FrameRate: 25,
		WindowSec: 60,
		Core:      blinkradar.DefaultConfig(),
	}
	m, err := NewManager(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()

	// A small bank of deterministic frames, narrowed to planes up
	// front: enough variation that the pipeline does real work, no
	// allocation during the timed loop.
	bank := make([]iq.Planes32, 64)
	for i := range bank {
		f := make([]complex128, bins)
		for j := range f {
			ph := float64(i)*0.31 + float64(j)*0.7
			f[j] = complex(math.Cos(ph), math.Sin(ph)) * 1e-3
		}
		bank[i] = iq.ComplexToPlanes(f)
	}
	ids := make([]string, sessions)
	for i := range ids {
		ids[i] = fmt.Sprintf("veh-%04d", i)
		if err := m.Attach(ids[i]); err != nil {
			b.Fatal(err)
		}
	}
	ids = ids[:streaming]
	inFlight := uint64(streaming * 16)
	// Prime every streaming session past cold start so the timed region
	// measures steady state, not amortised warm-up growth.
	for f := 0; f < prime; f++ {
		for _, id := range ids {
			p := bank[f%len(bank)]
			if err := m.SubmitPlanes(id, p.I, p.Q); err != nil {
				b.Fatal(err)
			}
		}
		pace(m, inFlight)
	}
	waitIdle(b, m)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := bank[i%len(bank)]
		if err := m.SubmitPlanes(ids[i%streaming], p.I, p.Q); err != nil {
			b.Fatal(err)
		}
		pace(m, inFlight)
	}
	waitIdle(b, m)
	b.StopTimer()

	if secs := b.Elapsed().Seconds(); secs > 0 {
		framesPerSec := float64(b.N) / secs
		streams := framesPerSec / cfg.FrameRate
		b.ReportMetric(streams/float64(runtime.GOMAXPROCS(0)), "streams/core")
	}
	st := m.Stats()
	if st.Dropped > 0 {
		b.Fatalf("paced benchmark dropped %d frames; queues overflowed", st.Dropped)
	}
}

// pace bounds the submit-side lead over the workers so queues never
// overflow (drops would understate the per-frame cost).
func pace(m *Manager, maxInFlight uint64) {
	for m.framesIn.Load()-m.frDone.Load() > maxInFlight {
		runtime.Gosched()
	}
}

// waitIdle blocks until the workers have drained every queue.
func waitIdle(b *testing.B, m *Manager) {
	b.Helper()
	for m.frDone.Load() < m.framesIn.Load() {
		runtime.Gosched()
	}
}
