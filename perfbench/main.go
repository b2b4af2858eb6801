// Command perfbench is the repository's benchmark: one process runs one
// workload — the paper suite through harness.Suite (what specrun runs), one
// stored-trace analysis through trace.OpenMapped's zero-copy reader and a
// core.Analyzer (what paragraph -trace -mmap runs), or pgserved jobs through an
// in-process serve.Server over loopback HTTP — and prints its metrics as
// the last line of standard output.
//
//	bash perfbench/run.sh --workload suite|trace|serve --seed N --seconds S --trace 0|1
//
// An untraced run (--trace 0) does set-up five times, one untimed warm-up
// job, a timed phase of identical jobs back to back for S seconds, then
// checks every job's output, and reports the end-to-end metrics. A traced
// run (--trace 1) does set-up, one untraced job, then the same job as
// direct calls into each layer, wrapped in spans, and reports per-layer
// metrics. See README.md for what each workload is made of and which
// per-layer metric should move which end-to-end one.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// workload is one of the benchmark's workloads.
type workload interface {
	// setup builds the workload's inputs under dir, replacing any state a
	// previous setup left; close releases it.
	setup(ctx context.Context, dir string) error
	close()
	// clients is how many closed-loop clients the timed phase runs.
	clients() int
	// job runs one job as the workload's CLI would and keeps what the
	// checks need; client and seq identify it.
	job(ctx context.Context, client, seq int) error
	// eventsPerJob is how many trace events one job analyses, counting an
	// event once per configuration it is analysed under.
	eventsPerJob() uint64
	// check verifies every job run so far, returning one error per failed
	// job (nil entries for jobs that passed), in job order.
	check(ctx context.Context) []error
	// traced runs the job once as direct layer calls under rec.
	traced(ctx context.Context, rec *recorder, job int) (map[string]float64, error)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRounds is how many times an untraced run sets up; setup_s is their
// median, so one slow disk flush or page-cache miss does not set it.
const setupRounds = 5

func main() {
	var (
		name    = flag.String("workload", "", "workload: suite, trace or serve")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "length of the timed phase in seconds")
		traced  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	runtime.GOMAXPROCS(runtime.NumCPU())
	res, host, err := run(context.Background(), *name, *seed, time.Duration(*seconds)*time.Second, *traced == 1, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	hb, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hb)
	out, _ := json.Marshal(res)
	// A run that completes exits 0 and lets "correct" and "failed" speak
	// for its jobs.
	fmt.Println(string(out))
}

func newWorkload(name string, seed int64, short bool) (workload, error) {
	switch name {
	case "suite":
		return newSuiteBench(seed, short), nil
	case "trace":
		return newTraceBench(seed, short), nil
	case "serve":
		return newServeBench(seed, short), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want suite, trace or serve)", name)
}

// run executes one benchmark run in a scratch directory under
// .bench_build/ and removes the directory afterwards.
func run(ctx context.Context, name string, seed int64, seconds time.Duration, traced, short bool) (*result, hostRecord, error) {
	w, err := newWorkload(name, seed, short)
	if err != nil {
		return nil, hostRecord{}, err
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, hostRecord{}, err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-"+name+"-")
	if err != nil {
		return nil, hostRecord{}, err
	}
	defer os.RemoveAll(dir)
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, hostRecord{}, err
	}
	probe := startHostProbe()
	var res *result
	if traced {
		res, err = runTraced(ctx, w, abs, seconds, fmt.Sprintf(".bench_build/spans-%s-seed%d.json", name, seed))
	} else {
		res, err = runUntraced(ctx, w, abs, seconds)
	}
	w.close()
	if err != nil {
		return nil, hostRecord{}, err
	}
	return res, probe.done(), nil
}

// runUntraced measures the end-to-end metrics.
func runUntraced(ctx context.Context, w workload, dir string, seconds time.Duration) (*result, error) {
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		w.close()
		start := time.Now()
		if err := w.setup(ctx, dir); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	w.job(ctx, 0, 0) // warm-up; an error is counted with the checks

	// Timed phase: each closed-loop client starts its next job only after
	// the previous one finished, and starts none once the phase's time is
	// up; the phase ends when the last job does. A job that errors counts
	// as failed and is left out of the latencies.
	n := w.clients()
	lat := make([][]float64, n)
	start := time.Now()
	deadline := start.Add(seconds)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for seq := 1; time.Now().Before(deadline); seq++ {
				t := time.Now()
				if err := w.job(ctx, c, seq); err == nil {
					lat[c] = append(lat[c], ms(time.Since(t)))
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	// The high-water mark is taken before the checks, whose reference
	// computations are the benchmark's memory, not the program's.
	rss := peakRSSMB()
	var all []float64
	for c := range lat {
		all = append(all, lat[c]...)
	}

	// check returns one entry per job, the warm-up included.
	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, err := range w.check(ctx) {
		res.Attempted++
		if err != nil {
			res.Failed++
			res.Correct = false
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
		}
	}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["events_per_s"] = metric{float64(w.eventsPerJob()) * float64(len(all)) / elapsed.Seconds(), "1/s"}
	res.Metrics["job_p50_ms"] = metric{median(all), "ms"}
	res.Metrics["peak_rss_mb"] = metric{rss, "MB"}
	fmt.Fprintf(os.Stderr, "perfbench: %d timed jobs in %.2fs; setups %.3f s; jobs %.0f ms\n", len(all), elapsed.Seconds(), setups, all)
	// A percentile needs enough samples beyond it to be a tail: p90 is
	// printed only from 100 jobs up, and only as a detail line, since
	// most workloads finish far fewer jobs in a run.
	if len(all) >= 100 {
		fmt.Printf("detail {\"job_p90_ms\": %.4f, \"jobs\": %d}\n", percentile(all, 90), len(all))
	}
	return res, nil
}

// runTraced measures the per-layer metrics: one untraced job first, timed
// for comparison and with GC time taken over it, then traced jobs back to
// back until the run's time is up (at least one). Each per-layer value is
// the median over the traced jobs.
func runTraced(ctx context.Context, w workload, dir string, seconds time.Duration, spanPath string) (*result, error) {
	if err := w.setup(ctx, dir); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	gc0 := gcCPUSeconds()
	t := time.Now()
	w.job(ctx, 0, 0) // an error is counted with the checks
	untraced := ms(time.Since(t))
	gc := gcCPUSeconds() - gc0

	rec := newRecorder()
	res := &result{Correct: true, Metrics: map[string]metric{}}
	vals := map[string][]float64{}
	deadline := time.Now().Add(seconds)
	for job := 1; job == 1 || time.Now().Before(deadline); job++ {
		res.Attempted++
		t := time.Now()
		extra, err := w.traced(ctx, rec, job)
		if err == nil {
			err = rec.verify(job)
		}
		if err != nil {
			res.Failed++
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: traced job %d failed: %v\n", job, err)
			continue
		}
		vals["traced.job_ms"] = append(vals["traced.job_ms"], ms(time.Since(t)))
		for name, v := range layerMetrics(rec, job) {
			vals[name] = append(vals[name], v)
		}
		for name, v := range extra {
			vals[name] = append(vals[name], v)
		}
	}
	for _, err := range w.check(ctx) {
		res.Attempted++
		if err != nil {
			res.Failed++
			res.Correct = false
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
		}
	}
	if err := rec.write(spanPath); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", spanPath)
	res.Metrics["untraced.job_ms"] = metric{untraced, "ms"}
	res.Metrics["runtime.gc_cpu_s"] = metric{gc, "s"}
	for _, m := range perLayer {
		v, ok := vals[m.name]
		if !ok && res.Failed == 0 {
			return nil, fmt.Errorf("traced run produced no %s", m.name)
		}
		res.Metrics[m.name] = metric{median(v), m.unit}
	}
	res.Metrics["traced.job_ms"] = metric{median(vals["traced.job_ms"]), "ms"}
	return res, nil
}

// perLayer lists the per-layer metrics every traced run reports, derived
// from span totals by layerMetrics.
var perLayer = []struct{ name, unit string }{
	{"cpu.ns_per_instr", "ns"},
	{"cpu.bytes_per_instr", "B"},
	{"harness.table2_ms", "ms"},
	{"harness.table3_ms", "ms"},
	{"harness.table4_ms", "ms"},
	{"harness.figure7_ms", "ms"},
	{"harness.figure8_ms", "ms"},
	{"core.analyzer.ns_per_event", "ns"},
	{"core.analyzer.bytes_per_event", "B"},
	{"core.resolve.ns_per_event", "ns"},
	{"core.schedule.ns_per_event", "ns"},
	{"core.gang.ns_per_event", "ns"},
	{"trace.write_ns_per_event", "ns"},
	{"trace.decode_ns_per_event", "ns"},
	{"trace.decode_bytes_per_event", "B"},
	{"shard.split_ms", "ms"},
	{"shard.chained_ms", "ms"},
	{"shard.speculative_ms", "ms"},
	{"shard.merge_ms", "ms"},
	{"shard.persist_ms", "ms"},
	{"serve.submit_ms", "ms"},
	{"serve.queue_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.result_ms", "ms"},
	{"serve.overhead_ms", "ms"},
}

// layerMetrics turns one traced job's spans into per-layer values.
// Per-event figures divide a layer's total time (or allocation) by the
// events of the inputs it covered; _ms figures are per call, summed over
// the job's inputs for the shard and harness layers and the median over
// jobs for the client-observed serve phases.
func layerMetrics(rec *recorder, job int) map[string]float64 {
	out := map[string]float64{}
	perEvent := func(metricName, span string, bytes bool) {
		dur, alloc, events := rec.layerTotals(job, span)
		if events == 0 {
			return
		}
		if bytes {
			out[metricName] = float64(alloc) / float64(events)
		} else {
			out[metricName] = float64(dur.Nanoseconds()) / float64(events)
		}
	}
	perEvent("cpu.ns_per_instr", "cpu.run", false)
	perEvent("cpu.bytes_per_instr", "cpu.run", true)
	perEvent("core.analyzer.ns_per_event", "core.analyzer", false)
	perEvent("core.analyzer.bytes_per_event", "core.analyzer", true)
	perEvent("core.resolve.ns_per_event", "core.resolve", false)
	perEvent("core.schedule.ns_per_event", "core.schedule", false)
	perEvent("core.gang.ns_per_event", "core.gang", false)
	perEvent("trace.write_ns_per_event", "trace.write", false)
	perEvent("trace.decode_ns_per_event", "trace.decode", false)
	perEvent("trace.decode_bytes_per_event", "trace.decode", true)
	for _, name := range []string{"harness.table2", "harness.table3", "harness.table4", "harness.figure7", "harness.figure8",
		"shard.split", "shard.chained", "shard.speculative", "shard.merge", "shard.persist"} {
		if dur, _, events := rec.layerTotals(job, name); events > 0 {
			out[name+"_ms"] = ms(dur)
		}
	}
	for name, v := range rec.perCall(job, []string{"serve.submit", "serve.queue", "serve.run", "serve.result"}) {
		out[name+"_ms"] = v
	}
	return out
}
