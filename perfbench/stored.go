package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"paragraph/internal/budget"
	"paragraph/internal/core"
	"paragraph/internal/trace"
	"paragraph/internal/workloads"
)

// traceBench is one stored-trace analysis per job, through the path
// paragraph -trace -mmap takes: trace.OpenMapped, the mapping's zero-copy
// Reader, and one core.Analyzer under the dataflow configuration fed by
// Reader.ForEach. The trace is espressox at scale 2 (13.4M events, 82 MB),
// larger than the CPU caches.
type traceBench struct {
	seed  int64
	in    *input
	probe *layerProbe
	mu    sync.Mutex
	outs  []*core.Result
	errs  []error
}

func newTraceBench(seed int64, short bool) *traceBench {
	name, scale := "espressox", 2
	if short {
		name, scale = "naskerx", 1
	}
	w, _ := workloads.ByName(name)
	return &traceBench{seed: seed, in: &input{name: fmt.Sprintf("%s@%d", name, scale), w: w, scale: scale}}
}

func (b *traceBench) clients() int { return 1 }

// setup simulates the analogue and writes its trace.
func (b *traceBench) setup(ctx context.Context, dir string) error {
	b.in.path = filepath.Join(dir, b.in.w.Name+".trace")
	n, err := writeTrace(b.in.w, b.in.scale, b.in.path)
	b.in.events = n
	b.probe = &layerProbe{dir: dir, seed: b.seed}
	return err
}

func (b *traceBench) close() {
	if b.probe != nil {
		b.probe.close()
	}
}

func (b *traceBench) eventsPerJob() uint64 { return b.in.events }

func (b *traceBench) job(ctx context.Context, client, seq int) error {
	res, err := analyzeMapped(ctx, b.in.path)
	b.mu.Lock()
	b.outs = append(b.outs, res)
	b.errs = append(b.errs, err)
	b.mu.Unlock()
	return err
}

// analyzeMapped is paragraph -trace FILE -mmap's single-pass analysis:
// the mapping's zero-copy reader feeds the analyzer one event at a time,
// with a cancellation check every budget.CheckEvery events.
func analyzeMapped(ctx context.Context, path string) (*core.Result, error) {
	m, err := trace.OpenMapped(path)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	r, err := m.Reader(trace.ReaderOptions{})
	if err != nil {
		return nil, err
	}
	an := core.NewAnalyzer(dataflow)
	n := uint64(0)
	err = r.ForEach(func(e *trace.Event) error {
		if n%budget.CheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		n++
		return an.Event(e)
	})
	if err != nil {
		return nil, err
	}
	return an.Finish()
}

// check compares every job's result with the reference analyzer run over
// the same trace file.
func (b *traceBench) check(ctx context.Context) []error {
	want, err := referenceOf(b.in.path)
	var errs []error
	for j, res := range b.outs {
		e := b.errs[j]
		if e == nil {
			e = err
		}
		if e == nil {
			e = want.compareResult("trace job", res)
		}
		if e != nil {
			e = fmt.Errorf("trace job %d: %w", j, e)
		}
		errs = append(errs, e)
	}
	return errs
}

// referenceOf runs the reference analyzer over a stored trace, read with
// the plain streaming reader rather than the zero-copy one.
func referenceOf(path string) (refResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return refResult{}, err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return refResult{}, err
	}
	ref := newRefAnalyzer()
	if err := r.ForEach(ref.Event); err != nil {
		return refResult{}, err
	}
	return ref.finish(), nil
}

func (b *traceBench) traced(ctx context.Context, rec *recorder, job int) (map[string]float64, error) {
	return b.probe.run(ctx, rec, job, []*input{b.in})
}
