package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"

	"paragraph/internal/core"
	"paragraph/internal/cpu"
	"paragraph/internal/harness"
	"paragraph/internal/minic"
	"paragraph/internal/shard"
	"paragraph/internal/trace"
	"paragraph/internal/workloads"
)

// input is one analogue at one scale, with its stored trace.
type input struct {
	name   string // analogue@scale, the span input name
	w      *workloads.Workload
	scale  int
	events uint64
	path   string // PGTRACE2 file
}

// dataflow is the configuration of the trace and serve jobs: the paper's
// dataflow limit with conservative system calls, profile on — what
// paragraph -trace runs by default.
var dataflow = core.Dataflow(core.SyscallConservative)

// serveShards is the fixed shard count of every pgserved job.
const serveShards = 4

// layerWindow is how many events the traced run decodes into one
// EventBuffer before handing them to the layers; it bounds the traced
// run's memory whatever the trace length.
const layerWindow = 1 << 20

// writeTrace simulates an analogue into a PGTRACE2 file and returns the
// number of events written.
func writeTrace(w *workloads.Workload, scale int, path string) (uint64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	tw, err := trace.NewWriter(f)
	if err != nil {
		f.Close()
		return 0, err
	}
	res, err := w.Run(scale, minic.Options{}, tw, 0)
	if err != nil {
		f.Close()
		return 0, err
	}
	if err := tw.Close(); err != nil {
		return 0, fmt.Errorf("writing %s: %w", path, err)
	}
	if res.Instructions != tw.Count() {
		return 0, fmt.Errorf("%s: simulated %d instructions, wrote %d events", w.Name, res.Instructions, tw.Count())
	}
	return tw.Count(), nil
}

// figure8Configs is the Figure 8 group: one dataflow config per window
// size, profile off, exactly as harness.Suite.Figure8 builds it.
func figure8Configs() []core.Config {
	var cfgs []core.Config
	for _, size := range harness.DefaultWindowSizes() {
		cfg := core.Dataflow(core.SyscallConservative)
		cfg.Profile = false
		cfg.WindowSize = size
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// layerProbe runs a workload's job as direct calls into each layer's
// public functions, one span per call.
type layerProbe struct {
	dir  string
	seed int64
	d    *daemon           // started on first use
	ids  map[string]string // input name -> registered trace id
}

func (p *layerProbe) close() {
	if p.d != nil {
		p.d.close()
		p.d = nil
	}
	p.ids = nil
}

// run is one traced job over the inputs (which share one scale). It
// returns the metrics that are not span totals.
func (p *layerProbe) run(ctx context.Context, rec *recorder, job int, ins []*input) (map[string]float64, error) {
	root := rec.begin(job, 0, "job", "", "")
	defer root.end(0)
	parent := root.id()
	set := "suite:"
	var total uint64
	for _, in := range ins {
		rec.expect(in.name, in.events)
		set += " " + in.name
		total += in.events
	}
	rec.expect(set, total)
	if err := p.harnessLayer(ctx, rec, job, parent, ins, set); err != nil {
		return nil, err
	}
	var overheads []float64
	for _, in := range ins {
		if err := cpuLayer(rec, job, parent, in); err != nil {
			return nil, err
		}
		m, err := trace.OpenMapped(in.path)
		if err != nil {
			return nil, err
		}
		err = pipeline(ctx, rec, job, parent, in, m.Bytes())
		var inproc map[bool]float64
		var want *core.Result
		if err == nil {
			inproc, want, err = shardLayer(ctx, rec, job, parent, in, m.Bytes(), p.dir)
		}
		m.Close()
		if err != nil {
			return nil, err
		}
		o, err := p.serveLayer(ctx, rec, job, parent, in, want, inproc)
		if err != nil {
			return nil, err
		}
		overheads = append(overheads, o...)
	}
	return map[string]float64{"serve.overhead_ms": median(overheads)}, nil
}

// harnessLayer runs each experiment driver of the paper suite over the
// inputs' analogues. Only Table 2 reports instruction counts; for the
// other drivers the span counts the events of the inputs only when every
// analogue came back with a row, in order and without error.
func (p *layerProbe) harnessLayer(ctx context.Context, rec *recorder, job, parent int, ins []*input, set string) error {
	s := harness.NewSuite(ins[0].scale)
	s.Workloads = nil
	for _, in := range ins {
		s.Workloads = append(s.Workloads, in.w)
	}
	complete := func(names, errs []string) uint64 {
		if len(names) != len(ins) {
			return 0
		}
		var ev uint64
		for i, in := range ins {
			if names[i] != in.w.Name || errs[i] != "" {
				return 0
			}
			ev += in.events
		}
		return ev
	}
	drivers := []struct {
		name string
		run  func() (names, errs []string, events uint64, err error)
	}{
		{"harness.table2", func() (names, errs []string, ev uint64, err error) {
			rows, err := s.Table2(ctx)
			for _, r := range rows {
				ev += r.Instructions
			}
			return nil, nil, ev, err
		}},
		{"harness.table3", func() (names, errs []string, ev uint64, err error) {
			rows, err := s.Table3(ctx)
			for _, r := range rows {
				names, errs = append(names, r.Name), append(errs, r.Err)
			}
			return names, errs, 0, err
		}},
		{"harness.table4", func() (names, errs []string, ev uint64, err error) {
			rows, err := s.Table4(ctx)
			for _, r := range rows {
				names, errs = append(names, r.Name), append(errs, r.Err)
			}
			return names, errs, 0, err
		}},
		{"harness.figure7", func() (names, errs []string, ev uint64, err error) {
			rows, err := s.Figure7(ctx)
			for _, r := range rows {
				names, errs = append(names, r.Name), append(errs, "")
			}
			return names, errs, 0, err
		}},
		{"harness.figure8", func() (names, errs []string, ev uint64, err error) {
			rows, err := s.Figure8(ctx, nil)
			for _, r := range rows {
				names, errs = append(names, r.Name), append(errs, "")
			}
			return names, errs, 0, err
		}},
	}
	for _, d := range drivers {
		sp := rec.begin(job, parent, d.name, set, "")
		names, errs, ev, err := d.run()
		if names != nil {
			ev = complete(names, errs)
		}
		sp.end(ev)
		if err != nil {
			return fmt.Errorf("%s: %w", d.name, err)
		}
	}
	return nil
}

// cpuLayer simulates the analogue into a sink that only counts events.
func cpuLayer(rec *recorder, job, parent int, in *input) error {
	prog, err := in.w.Build(in.scale, minic.Options{})
	if err != nil {
		return err
	}
	var counter trace.Counter
	var out bytes.Buffer
	m, err := cpu.New(prog, cpu.WithTrace(&counter), cpu.WithStdout(&out))
	if err != nil {
		return err
	}
	sp := rec.begin(job, parent, "cpu.run", in.name, "")
	n, err := m.Run(0)
	sp.end(counter.N)
	if err != nil {
		return fmt.Errorf("%s: %w", in.name, err)
	}
	if n != counter.N {
		return fmt.Errorf("%s: cpu ran %d instructions but emitted %d events", in.name, n, counter.N)
	}
	return nil
}

// pipeline walks the trace in windows of layerWindow events: decode into
// an EventBuffer, then replay the buffer through the dataflow analyzer,
// the trace writer, the Figure 8 resolver, one scheduler per window size,
// and a scheduler gang over the same sizes. Each layer's count comes from
// the layer itself at its last span (Finish, Close or Flush), so a layer
// that skipped events fails verification.
func pipeline(ctx context.Context, rec *recorder, job, parent int, in *input, data []byte) error {
	r, err := trace.NewBytesReader(data, trace.ReaderOptions{})
	if err != nil {
		return err
	}
	an := core.NewAnalyzer(dataflow)
	tw, err := trace.NewWriter(io.Discard)
	if err != nil {
		return err
	}
	cfgs := figure8Configs()
	var segs []*core.DepSegment
	res := core.NewResolver(cfgs[0], func(s *core.DepSegment) error {
		segs = append(segs, s)
		return nil
	})
	scheds := make([]*core.Scheduler, len(cfgs))
	gangScheds := make([]*core.Scheduler, len(cfgs))
	for i, cfg := range cfgs {
		scheds[i] = core.NewScheduler(cfg)
		gangScheds[i] = core.NewScheduler(cfg)
	}
	gang := core.NewSchedulerGang(gangScheds)
	if gang == nil {
		return errors.New("figure 8 group is not gang-eligible")
	}
	apply := func(last bool, totals core.ResolveTotals) ([]*core.Result, []*core.Result, error) {
		var solo, ganged []*core.Result
		for i, s := range scheds {
			sp := rec.begin(job, parent, "core.schedule", in.name, fmt.Sprintf("window=%d", cfgs[i].WindowSize))
			var events uint64
			for _, seg := range segs {
				if err := s.Apply(seg); err != nil {
					sp.end(0)
					return nil, nil, err
				}
			}
			if last {
				out, err := s.Finish(totals)
				if err != nil {
					sp.end(0)
					return nil, nil, err
				}
				events = out.Instructions
				solo = append(solo, out)
			}
			sp.end(events)
		}
		sp := rec.begin(job, parent, "core.gang", in.name, "")
		var events uint64
		for _, seg := range segs {
			if err := gang.Apply(seg); err != nil {
				sp.end(0)
				return nil, nil, err
			}
		}
		if last {
			gang.Seal()
			events = ^uint64(0)
			for _, s := range gangScheds {
				out, err := s.Finish(totals)
				if err != nil {
					sp.end(0)
					return nil, nil, err
				}
				events = min(events, out.Instructions)
				ganged = append(ganged, out)
			}
		}
		sp.end(events)
		segs = segs[:0]
		return solo, ganged, nil
	}

	batch := make([]trace.Event, trace.DefaultBatchEvents)
	for eof := false; !eof; {
		// Decoding includes recording into the window's EventBuffer, as
		// shard.DecodeShard does for every pgserved shard.
		sp := rec.begin(job, parent, "trace.decode", in.name, "")
		buf := &trace.EventBuffer{}
		buf.Grow(layerWindow)
		for buf.Len() < layerWindow {
			n, err := r.ReadBatch(batch[:min(len(batch), layerWindow-buf.Len())])
			if n > 0 {
				_ = buf.Events(batch[:n]) // EventBuffer.Events never fails
			}
			if err == io.EOF {
				eof = true
				break
			}
			if err != nil {
				sp.end(0)
				return fmt.Errorf("%s: %w", in.name, err)
			}
		}
		sp.end(uint64(buf.Len()))

		var events uint64
		sp = rec.begin(job, parent, "core.analyzer", in.name, "")
		err := buf.ReplayBatches(ctx, an)
		var ares *core.Result
		if err == nil && eof {
			ares, err = an.Finish()
			if err == nil {
				events = ares.Instructions
			}
		}
		sp.end(events)
		if err != nil {
			return fmt.Errorf("%s: analyzer: %w", in.name, err)
		}

		events = 0
		sp = rec.begin(job, parent, "trace.write", in.name, "")
		err = buf.ReplayBatches(ctx, trace.AsBatch(tw))
		if err == nil && eof {
			err = tw.Close()
			events = tw.Count()
		}
		sp.end(events)
		if err != nil {
			return fmt.Errorf("%s: writer: %w", in.name, err)
		}

		events = 0
		sp = rec.begin(job, parent, "core.resolve", in.name, "")
		err = buf.ReplayBatches(ctx, res)
		if err == nil && eof {
			err = res.Flush()
			events = res.Totals().Events
		}
		sp.end(events)
		if err != nil {
			return fmt.Errorf("%s: resolver: %w", in.name, err)
		}
		solo, ganged, err := apply(eof, res.Totals())
		if err != nil {
			return fmt.Errorf("%s: figure 8 group: %w", in.name, err)
		}
		if eof {
			for i := range solo {
				if !reflect.DeepEqual(solo[i], ganged[i]) {
					return fmt.Errorf("%s: window %d: gang result differs from its scheduler's", in.name, cfgs[i].WindowSize)
				}
			}
		}
	}
	return nil
}

// shardLayer runs the pgserved job's shard work in process: split, the
// chained shard walk, merge and persistence of the chained results, and
// the speculative build-and-splice. It returns the in-process time of each
// job kind (keyed by speculate) and the merged result.
func shardLayer(ctx context.Context, rec *recorder, job, parent int, in *input, data []byte, dir string) (map[bool]float64, *core.Result, error) {
	sp := rec.begin(job, parent, "shard.split", in.name, "")
	plan, err := shard.Split(data, serveShards, shard.Options{})
	if err != nil {
		sp.end(0)
		return nil, nil, err
	}
	sp.end(plan.TotalEvents)
	n := len(plan.Shards)

	sp = rec.begin(job, parent, "shard.chained", in.name, "")
	parts := make([]*shard.Result, n)
	cps := make([]*core.Checkpoint, n)
	var events uint64
	for i, sh := range plan.Shards {
		buf, err := shard.DecodeShard(ctx, data, sh, false)
		if err != nil {
			sp.end(0)
			return nil, nil, err
		}
		a := core.NewAnalyzer(dataflow)
		if i > 0 {
			a = cps[i-1].Restore()
		}
		parts[i], cps[i], err = shard.RunShard(ctx, a, buf, dataflow, sh, n, i < n-1)
		if err != nil {
			sp.end(0)
			return nil, nil, err
		}
		events += parts[i].Events
	}
	chained := sp.end(events)

	sp = rec.begin(job, parent, "shard.merge", in.name, "")
	merged, _, err := shard.Merge(parts)
	if err != nil {
		sp.end(0)
		return nil, nil, err
	}
	sp.end(merged.Instructions)

	sp = rec.begin(job, parent, "shard.persist", in.name, "")
	events = 0
	for i, part := range parts {
		if err := shard.SaveResult(filepath.Join(dir, fmt.Sprintf("probe-shard-%d.pgsr", i)), part, cps[i]); err != nil {
			sp.end(0)
			return nil, nil, err
		}
		events += part.Events
	}
	sp.end(events)

	// Speculative: every shard decodes and builds its delta concurrently,
	// at most one per CPU as the daemon's executors do, then one
	// sequential splice.
	sp = rec.begin(job, parent, "shard.speculative", in.name, "")
	deltas := make([]*shard.Delta, n)
	errs := make([]error, n)
	sem := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	for i, sh := range plan.Shards {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, sh shard.Shard) {
			defer wg.Done()
			defer func() { <-sem }()
			buf, err := shard.DecodeShard(ctx, data, sh, false)
			if err != nil {
				errs[i] = err
				return
			}
			d, err := shard.BuildShardDelta(ctx, buf, dataflow, sh)
			deltas[i] = &shard.Delta{Index: i, Shards: n, Config: dataflow, ReadStats: buf.Stats(), D: d}
			errs[i] = err
		}(i, sh)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		sp.end(0)
		return nil, nil, err
	}
	_, spliced, _, err := shard.Splice(deltas)
	if err != nil {
		sp.end(0)
		return nil, nil, err
	}
	speculative := sp.end(spliced.Instructions)
	if !reflect.DeepEqual(spliced, merged) {
		return nil, nil, fmt.Errorf("%s: speculative splice differs from the chained merge", in.name)
	}
	return map[bool]float64{false: ms(chained), true: ms(speculative)}, merged, nil
}

// serveLayer runs one chained and one speculative pgserved job on the
// input (in seeded order), one client at a time, and records their
// client-observed phases. It returns each job's run time minus the
// in-process time of the same shard work.
func (p *layerProbe) serveLayer(ctx context.Context, rec *recorder, job, parent int, in *input, want *core.Result, inproc map[bool]float64) ([]float64, error) {
	if p.d == nil {
		dir := filepath.Join(p.dir, "probe-state")
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		d, err := startDaemon(dir)
		if err != nil {
			return nil, err
		}
		p.d, p.ids = d, map[string]string{}
	}
	id, ok := p.ids[in.name]
	if !ok {
		var err error
		if id, err = p.d.register(ctx, in.path); err != nil {
			return nil, err
		}
		p.ids[in.name] = id
	}
	var overheads []float64
	for k := 0; k < 2; k++ {
		speculate := jobKind(p.seed, 0, job*1000+k)
		res, t, err := p.d.runJob(ctx, id, dataflow, serveShards, speculate)
		if err != nil {
			return nil, err
		}
		if !reflect.DeepEqual(res.Result, want) {
			return nil, fmt.Errorf("%s: pgserved result differs from the in-process shard merge", in.name)
		}
		n, kind := res.Result.Instructions, "chained"
		if speculate {
			kind = "speculative"
		}
		rec.add(job, parent, "serve.submit", in.name, kind, t.start, t.submitted, n)
		rec.add(job, parent, "serve.queue", in.name, kind, t.submitted, t.running, n)
		rec.add(job, parent, "serve.run", in.name, kind, t.running, t.terminal, n)
		rec.add(job, parent, "serve.result", in.name, kind, t.terminal, t.fetched, n)
		overheads = append(overheads, ms(t.terminal.Sub(t.running))-inproc[speculate])
	}
	return overheads, nil
}

// jobKind decides whether a client's seq-th pgserved job is speculative.
// Jobs come in pairs, one of each kind; the seed orders each pair.
func jobKind(seed int64, client, seq int) bool {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(client)*0xbf58476d1ce4e5b9 + uint64(seq/2)
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return (x&1 == 1) != (seq%2 == 1)
}
