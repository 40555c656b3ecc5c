// Command fleetbench is the fleet serving benchmark: it drives one
// frame's trip through production — wire bytes, transport decode,
// session queue, shard worker, Monitor.FeedPlanes, blink event — under a
// named workload and reports what an operator pays per stream.
//
// Usage (from the repository root):
//
//	bash fleetbench/run.sh --workload fleet-steady --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//	fleet-steady  open loop, 512 sessions attached up front, each sending
//	              at a fixed rate with a seeded phase; decode and submit
//	              run in-process, as ingest's loop body does
//	fleet-churn   closed loop, 512 sessions drained, detached and
//	              re-attached every few hundred frames; a quarter carry
//	              seeded drop, duplicate/reorder or NaN faults
//	wire-ingest   closed loop over loopback TCP into the production
//	              ingest.Serve, two connections, throttled on SessionStats
//
// Every input is generated from --seed. Every served blink is checked
// against a single-threaded reference pass (a fresh Monitor per
// connection over the same bytes); any difference, drop or rate limit
// fails the run. With --trace 0 the run reports the end-to-end metrics;
// with --trace 1 it repeats the workload with spans kept around every
// call into the program from this package, a Manager.Stats sampler, and
// a traced single-threaded reference pass, and reports the per-layer
// ledger. The last line of standard output is one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is one run's outcome.
type result struct {
	attempted, failed uint64
	problems          []string
	notes             []string
	metrics           []metric
}

// fail records a correctness violation costing frames operations.
func (r *result) fail(frames uint64, format string, args ...any) {
	r.failed += frames
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *result) correct() bool { return len(r.problems) == 0 && r.failed == 0 }

func main() {
	var (
		workload = flag.String("workload", "", "fleet-steady, fleet-churn or wire-ingest")
		seed     = flag.Int64("seed", 1, "workload seed; every input is generated from it")
		seconds  = flag.Int("seconds", 10, "length of the timed phase in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
		out      = flag.String("out", ".bench_build", "directory for traces")
	)
	flag.Parse()
	cfg := runConfig{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		outDir:   *out,
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "fleetbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	run, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "fleetbench: unknown workload %q (want fleet-steady, fleet-churn or wire-ingest)\n", cfg.workload)
		os.Exit(2)
	}
	fmt.Printf("fleetbench: workload %s, seed %d, %s timed, trace %d\n", cfg.workload, cfg.seed, cfg.seconds, *trace)
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetbench: %v\n", err)
		os.Exit(1)
	}
	if !emit(res) {
		os.Exit(1)
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*result, error){
	"fleet-steady": runSteady,
	"fleet-churn":  runChurn,
	"wire-ingest":  runWire,
}

// emit prints the human-readable report and the JSON result line, and
// reports whether the run was correct.
func emit(r *result) bool {
	for _, n := range r.notes {
		fmt.Println("  " + n)
	}
	for _, m := range r.metrics {
		fmt.Printf("  %-32s %14.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Printf("  operations attempted %d, failed %d\n", r.attempted, r.failed)
	const maxShown = 20
	for i, p := range r.problems {
		if i == maxShown {
			fmt.Printf("  ... %d more problems\n", len(r.problems)-maxShown)
			break
		}
		fmt.Println("  FAIL " + p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetbench: %v\n", err)
		return false
	}
	fmt.Println(string(line))
	return r.correct()
}

// endToEnd gathers what an untraced run reports.
type endToEnd struct {
	frames uint64        // frames processed in the timed phase
	wall   time.Duration // length of the timed phase
	cpu    time.Duration // process CPU over the timed phase
	latMs  []float64     // blink latencies of the timed phase
	f1     f1Tally
	heapKB []float64 // live heap per session, one per setup
	setupS []float64 // seconds, one per setup
}

func (e *endToEnd) report(r *result) {
	fr := float64(e.frames)
	if fr == 0 {
		r.fail(0, "no frame was processed in the timed phase")
		fr = 1
	}
	lat := sortedCopy(e.latMs)
	p, ok := tailPercentile(len(lat))
	r.note("blink latency samples %d; highest percentile with >= 10 samples beyond: p%g", len(lat), p)
	if !ok || len(lat) < 1000 {
		r.fail(0, "only %d blink latency samples, need 1000 for a p99", len(lat))
	}
	r.note("F1 pooled over %d true, %d false positives and %d misses", e.f1.tp, e.f1.fp, e.f1.fn)
	r.add("frames_per_s", fr/e.wall.Seconds(), "frames/s")
	r.add("cpu_us_per_frame", float64(e.cpu.Nanoseconds())/1e3/fr, "us")
	r.add("blink_latency_p50_ms", percentile(lat, 50), "ms")
	r.add("blink_latency_p99_ms", percentile(lat, 99), "ms")
	r.add("blink_f1", e.f1.f1(), "ratio")
	r.add("heap_kb_per_session", median(e.heapKB), "KB")
	r.add("setup_s", median(e.setupS), "s")
}
