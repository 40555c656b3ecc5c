package main

import (
	"io"
	"math"
	"path/filepath"
	"time"

	"blinkradar/internal/obs"
	"blinkradar/internal/session"
)

// ledgerTolerancePct bounds how far the layer self-times of the traced
// single-threaded pass may miss its per-frame total, the mean span of
// one frame from the start of its decode to the end of its feed. What
// no layer claims is the gap rule between the two calls and one clock
// read, about 50 ns: 1-1.5% of today's 4-5 µs frame, and still inside
// the tolerance for a pipeline twice as fast.
const ledgerTolerancePct = 5.0

// layerRun gathers what a traced run measured.
type layerRun struct {
	tr  *tracer
	led *ledger
	smp *sampler
	sl  *slicer

	wireBytesPerFrame float64
	readLag           []float64 // frames emitted but not yet submitted, at throttle points
	lateMs            []float64 // generator lateness per frame
	throughput        float64   // frames/s processed in the timed phase
	cpuNsPerFrame     float64   // process CPU per frame in the timed phase
	stats             session.ManagerStats
	counts            detCounts
}

// runLedger runs the traced single-threaded reference pass over the
// given streams on the calling goroutine.
func runLedger(tr *tracer, streams []io.Reader, sess []int32, opts refOptions) (*ledger, error) {
	led := &ledger{tr: tr, reg: obs.NewRegistry()}
	start := time.Now()
	for i, r := range streams {
		o := opts
		o.ledger, o.sess = led, sess[i]
		if _, err := runReference(r, o); err != nil {
			return nil, err
		}
	}
	led.wall = time.Since(start)
	return led, nil
}

// report adds every per-layer metric to r.
func (lr *layerRun) report(r *result, cfg runConfig) {
	led := lr.led
	frames := float64(led.frames)
	if frames == 0 {
		r.fail(0, "the traced reference pass fed no frames")
		frames = 1
	}
	decode := mean(lr.tr.durations(spDecode, int(spRefFrame)))
	feed := sortedCopy(lr.tr.durations(spFeed, int(spRefFrame)))
	feedMean := mean(feed)

	snap := led.reg.Snapshot()
	hist := func(name string) (sum float64, count uint64) {
		h := snap.Histograms[name]
		return h.Sum * 1e9, h.Count
	}
	frameSum, frameCount := hist("core_frame_latency_seconds")
	preSum, _ := hist("core_stage_preprocess_seconds")
	selSum, selCount := hist("core_stage_select_seconds")
	trackSum, _ := hist("core_stage_track_seconds")
	if frameCount != uint64(led.frames) {
		r.fail(0, "core_frame_latency_seconds counted %d frames, the ledger fed %d", frameCount, led.frames)
	}
	coreFrame := frameSum / frames
	pre, track, sel := preSum/frames, trackSum/frames, selSum/frames
	other := coreFrame - pre - track - sel
	self := feedMean - coreFrame
	total := mean(lr.tr.durations(spRefFrame, -1))
	layers := decode + self + pre + track + sel + other
	residual := (total - layers) / total * 100
	r.note("ledger: %d frames single-threaded in %.2f s, %.0f ns/frame, layers sum to %.0f ns (residual %.2f%%, tolerance %.0f%%)",
		led.frames, led.wall.Seconds(), total, layers, residual, ledgerTolerancePct)
	if math.Abs(residual) > ledgerTolerancePct {
		r.fail(0, "ledger residual %.2f%% exceeds %.0f%%", residual, ledgerTolerancePct)
	}
	for _, l := range []struct {
		name string
		ns   float64
	}{{"monitor.self_ns", self}, {"core.other_ns", other}} {
		if l.ns < -total*ledgerTolerancePct/100 {
			r.fail(0, "ledger layer %s is %.0f ns, below zero by more than the tolerance", l.name, l.ns)
		}
	}
	if p, _ := tailPercentile(len(feed)); p < 99.9 {
		r.note("monitor.feed_us_p999 rests on %d samples; the highest reportable percentile is p%g", len(feed), p)
	}

	submit := mean(lr.tr.durations(spSubmit, -1))
	attach := lr.tr.durations(spAttach, -1)
	detach := lr.tr.durations(spDetach, -1)
	r.note("spans: %d generator frames, %d attaches, %d detaches", len(lr.tr.durations(spGenFrame, -1)), len(attach), len(detach))

	depths := lr.smp.depths()
	depthMax := 0.0
	for _, d := range depths {
		depthMax = math.Max(depthMax, d)
	}
	st := lr.stats
	hitRatio := 0.0
	if st.Attaches > 0 {
		hitRatio = float64(st.PoolHits) / float64(st.Attaches)
	}
	lag := sortedCopy(lr.readLag)
	late := sortedCopy(lr.lateMs)

	r.add("transport.decode_ns", decode, "ns")
	r.add("transport.wire_bytes_per_frame", lr.wireBytesPerFrame, "bytes")
	r.add("ingest.read_lag_frames_p99", percentile(lag, 99), "frames")
	r.add("session.submit_ns", submit, "ns")
	r.add("session.queue_depth_mean", mean(depths), "frames")
	r.add("session.queue_depth_max", depthMax, "frames")
	r.add("session.queue_wait_us", littleWait(mean(depths), lr.throughput)*1e6, "us")
	r.add("session.attach_us", mean(attach)/1e3, "us")
	r.add("session.detach_us", mean(detach)/1e3, "us")
	r.add("session.pool_hit_ratio", hitRatio, "ratio")
	r.add("session.dropped", float64(st.Dropped), "count")
	r.add("session.limited", float64(st.Limited), "count")
	r.add("session.widens", float64(st.Widens), "count")
	r.add("session.degrades", float64(st.Degrades), "count")
	r.add("session.overhead_ns_per_frame", lr.cpuNsPerFrame-total, "ns")
	r.add("monitor.feed_ns_mean", feedMean, "ns")
	r.add("monitor.feed_ns_p50", percentile(feed, 50), "ns")
	r.add("monitor.feed_us_p999", percentile(feed, 99.9)/1e3, "us")
	r.add("monitor.feed_us_max", percentile(feed, 100)/1e3, "us")
	r.add("monitor.self_ns", self, "ns")
	r.add("core.frame_ns", coreFrame, "ns")
	r.add("core.preprocess_ns", pre, "ns")
	r.add("core.track_ns", track, "ns")
	r.add("core.select_us_per_call", selSum/math.Max(1, float64(selCount))/1e3, "us")
	r.add("core.selections_per_kframe", float64(selCount)/frames*1000, "1/kframe")
	r.add("core.select_ns_per_frame", sel, "ns")
	r.add("core.other_ns", other, "ns")
	r.add("core.restarts", float64(lr.counts.restarts), "count")
	r.add("core.bin_switches", float64(lr.counts.binSwitches), "count")
	r.add("core.frames_rejected", float64(lr.counts.rejected), "count")
	r.add("core.bins_repaired", float64(lr.counts.repaired), "count")
	r.add("core.gap_resets", float64(lr.counts.gapResets), "count")
	r.add("gen.lateness_p99_ms", percentile(late, 99), "ms")
	r.add("ledger.frame_ns", total, "ns")
	r.add("ledger.residual_pct", residual, "%")
	r.add("trace.overhead_pct", lr.sl.overheadPct(), "%")

	for _, c := range []struct {
		name string
		v    uint64
	}{{"dropped", st.Dropped}, {"limited", st.Limited}, {"widens", st.Widens}, {"degrades", st.Degrades}} {
		if c.v != 0 {
			r.fail(0, "session.%s is %d, must be 0", c.name, c.v)
		}
	}
	lr.writeOut(r, cfg)
}

// writeOut stores the spans and the sampler's records under the output
// directory, one file each per workload.
func (lr *layerRun) writeOut(r *result, cfg runConfig) {
	dir := filepath.Join(cfg.outDir, "traces")
	spans := filepath.Join(dir, cfg.workload+".spans.tsv")
	samples := filepath.Join(dir, cfg.workload+".samples.tsv")
	if err := lr.tr.write(spans); err != nil {
		r.note("writing spans: %v", err)
		return
	}
	if err := lr.smp.write(samples); err != nil {
		r.note("writing samples: %v", err)
		return
	}
	r.note("trace written to %s and %s", spans, samples)
}
