package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"

	"paragraph/internal/core"
	"paragraph/internal/serve"
	"paragraph/internal/trace"
	"paragraph/internal/workloads"
)

// serveBench is a closed loop of nproc clients, each submitting one
// pgserved job at a time over one registered trace (tomcatvx at scale 1,
// 1.5M events) and waiting for its result: POST /v1/jobs, the job's event
// stream to its terminal event, then the exact gob result. Jobs come in
// pairs of one chained and one speculative job, ordered by the seed, at a
// fixed serveShards shards.
type serveBench struct {
	seed    int64
	in      *input
	d       *daemon
	traceID string
	probe   *layerProbe
	mu      sync.Mutex
	outs    []*serve.JobResult
	errs    []error
}

func newServeBench(seed int64, short bool) *serveBench {
	name := "tomcatvx"
	if short {
		name = "naskerx"
	}
	w, _ := workloads.ByName(name)
	return &serveBench{seed: seed, in: &input{name: name + "@1", w: w, scale: 1}}
}

func (b *serveBench) clients() int { return runtime.NumCPU() }

// setup writes the trace, starts the daemon over a fresh state directory
// and registers the trace.
func (b *serveBench) setup(ctx context.Context, dir string) error {
	b.in.path = filepath.Join(dir, b.in.w.Name+".trace")
	n, err := writeTrace(b.in.w, b.in.scale, b.in.path)
	if err != nil {
		return err
	}
	b.in.events = n
	state := filepath.Join(dir, "state")
	if err := os.RemoveAll(state); err != nil {
		return err
	}
	if b.d, err = startDaemon(state); err != nil {
		return err
	}
	b.traceID, err = b.d.register(ctx, b.in.path)
	b.probe = &layerProbe{dir: dir, seed: b.seed}
	return err
}

func (b *serveBench) close() {
	if b.d != nil {
		b.d.close()
		b.d = nil
	}
	if b.probe != nil {
		b.probe.close()
	}
}

func (b *serveBench) eventsPerJob() uint64 { return b.in.events }

func (b *serveBench) job(ctx context.Context, client, seq int) error {
	res, _, err := b.d.runJob(ctx, b.traceID, dataflow, serveShards, jobKind(b.seed, client, seq))
	b.mu.Lock()
	b.outs = append(b.outs, res)
	b.errs = append(b.errs, err)
	b.mu.Unlock()
	return err
}

// check compares every job's exact result with a monolithic in-process
// analysis of the same trace and config.
func (b *serveBench) check(ctx context.Context) []error {
	data, err := os.ReadFile(b.in.path)
	var want *core.Result
	var rs trace.ReadStats
	if err == nil {
		want, err = core.AnalyzeTraceOpts(ctx, bytes.NewReader(data), dataflow, core.TwoPassOptions{Stats: &rs})
	}
	var errs []error
	for j, res := range b.outs {
		e := b.errs[j]
		if e == nil {
			e = err
		}
		if e == nil && !reflect.DeepEqual(res.Result, want) {
			e = fmt.Errorf("result differs from the monolithic analysis (critical path %d vs %d)", res.Result.CriticalPath, want.CriticalPath)
		}
		if e == nil && res.ReadStats != rs {
			e = fmt.Errorf("read stats %+v, monolithic %+v", res.ReadStats, rs)
		}
		if e != nil {
			e = fmt.Errorf("serve job %d: %w", j, e)
		}
		errs = append(errs, e)
	}
	return errs
}

func (b *serveBench) traced(ctx context.Context, rec *recorder, job int) (map[string]float64, error) {
	return b.probe.run(ctx, rec, job, []*input{b.in})
}
