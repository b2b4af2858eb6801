package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"sync"

	"paragraph/internal/harness"
	"paragraph/internal/minic"
	"paragraph/internal/workloads"
)

// suiteBench is the paper's evaluation at scale 1: one job is Tables 2, 3
// and 4 and Figures 7 and 8 through harness.Suite with default
// parallelism, as specrun -table2 -table3 -table4 -fig7 -fig8 runs it.
// Scale stays at 1 because cc1x never terminates at scale 2 or more.
type suiteBench struct {
	seed  int64
	ws    []*workloads.Workload
	instr []uint64 // per analogue, from set-up
	ins   []*input // traced runs only
	dir   string
	probe *layerProbe
	mu    sync.Mutex
	outs  []suiteOut
}

type suiteOut struct {
	t2  []harness.Table2Row
	t3  []harness.Table3Row
	t4  []harness.Table4Row
	f7  []harness.ProfileResult
	f8  []harness.WindowSeries
	err error
}

func newSuiteBench(seed int64, short bool) *suiteBench {
	ws := workloads.All()
	if short {
		ws = nil
		for _, n := range []string{"naskerx", "xlispx"} {
			w, _ := workloads.ByName(n)
			ws = append(ws, w)
		}
	}
	return &suiteBench{seed: seed, ws: ws}
}

func (b *suiteBench) clients() int { return 1 }

// setup compiles each analogue and runs it once, counting its events.
func (b *suiteBench) setup(ctx context.Context, dir string) error {
	b.dir = dir
	b.instr = make([]uint64, len(b.ws))
	for i, w := range b.ws {
		res, err := w.Run(1, minic.Options{}, nil, 0)
		if err != nil {
			return err
		}
		b.instr[i] = res.Instructions
	}
	return nil
}

func (b *suiteBench) close() {
	if b.probe != nil {
		b.probe.close()
	}
}

func (b *suiteBench) eventsPerJob() uint64 {
	// Table 3 analyses two configs, Table 4 four, Figure 7 one and
	// Figure 8 one per window size; Table 2 only simulates.
	configs := uint64(2 + 4 + 1 + len(harness.DefaultWindowSizes()))
	var n uint64
	for _, v := range b.instr {
		n += v
	}
	return n * configs
}

func (b *suiteBench) job(ctx context.Context, client, seq int) error {
	s := harness.NewSuite(1)
	s.Workloads = b.ws
	var o suiteOut
	o.t2, o.err = s.Table2(ctx)
	if o.err == nil {
		o.t3, o.err = s.Table3(ctx)
	}
	if o.err == nil {
		o.t4, o.err = s.Table4(ctx)
	}
	if o.err == nil {
		o.f7, o.err = s.Figure7(ctx)
	}
	if o.err == nil {
		o.f8, o.err = s.Figure8(ctx, nil)
	}
	b.mu.Lock()
	b.outs = append(b.outs, o)
	b.mu.Unlock()
	return o.err
}

// check verifies each job against the analogues' hand-written outputs,
// the properties the method must have, and — for one analogue the seed
// picks — the reference analyzer.
func (b *suiteBench) check(ctx context.Context) []error {
	ri := int(uint64(b.seed) % uint64(len(b.ws)))
	rw := b.ws[ri]
	ref := newRefAnalyzer()
	_, refErr := rw.Run(1, minic.Options{}, ref, 0)
	want := ref.finish()
	var errs []error
	for j, o := range b.outs {
		err := o.err
		if err == nil && refErr != nil {
			err = fmt.Errorf("reference run of %s: %w", rw.Name, refErr)
		}
		if err == nil {
			err = b.checkOut(o, ri, want)
		}
		if err != nil {
			err = fmt.Errorf("suite job %d: %w", j, err)
		}
		errs = append(errs, err)
	}
	return errs
}

func (b *suiteBench) checkOut(o suiteOut, ri int, ref refResult) error {
	n := len(b.ws)
	if len(o.t2) != n || len(o.t3) != n || len(o.t4) != n || len(o.f7) != n || len(o.f8) != n {
		return fmt.Errorf("row counts %d/%d/%d/%d/%d, want %d each", len(o.t2), len(o.t3), len(o.t4), len(o.f7), len(o.f8), n)
	}
	for i, w := range b.ws {
		r := o.t2[i]
		switch {
		case r.Name != w.Name || r.Err != "":
			return fmt.Errorf("table 2 row %d: %q %s", i, r.Name, r.Err)
		case r.Output != w.ExpectOutput:
			return fmt.Errorf("table 2: %s printed %q, want %q", w.Name, r.Output, w.ExpectOutput)
		case r.Instructions != b.instr[i]:
			return fmt.Errorf("table 2: %s ran %d instructions, set-up ran %d", w.Name, r.Instructions, b.instr[i])
		}
		if t := o.t3[i]; t.Err != "" || t.OptCriticalPath > t.ConsCriticalPath {
			return fmt.Errorf("table 3: %s optimistic critical path %d above conservative %d (%s)", w.Name, t.OptCriticalPath, t.ConsCriticalPath, t.Err)
		}
		if t := o.t4[i]; t.Err != "" || t.Regs < t.NoRenaming || t.RegsStack < t.Regs || t.RegsMem < t.RegsStack {
			return fmt.Errorf("table 4: %s parallelism falls as renaming grows: %v %v %v %v (%s)", w.Name, t.NoRenaming, t.Regs, t.RegsStack, t.RegsMem, t.Err)
		}
		prev := 0.0
		for _, pt := range o.f8[i].Points {
			if pt.Percent < prev || pt.Percent > 100 {
				return fmt.Errorf("figure 8: %s at window %d reads %v%% after %v%%", w.Name, pt.Window, pt.Percent, prev)
			}
			prev = pt.Percent
		}
		p := o.f7[i]
		ops := uint64(math.Round(p.Available * float64(p.CriticalPath)))
		var sum uint64
		for k, pt := range p.Profile {
			span := p.BucketWidth
			if k == len(p.Profile)-1 {
				span = p.CriticalPath - pt.Level
			}
			sum += uint64(math.Round(pt.Ops * float64(span)))
		}
		if sum != ops {
			return fmt.Errorf("figure 7: %s profile sums to %d operations, result has %d", w.Name, sum, ops)
		}
		if i == ri {
			if err := ref.compare("figure 7 "+w.Name, ops, p.CriticalPath, p.Available, p.BucketWidth, p.Profile); err != nil {
				return err
			}
		}
	}
	return nil
}

func (b *suiteBench) traced(ctx context.Context, rec *recorder, job int) (map[string]float64, error) {
	if b.ins == nil {
		for i, w := range b.ws {
			in := &input{name: w.Name + "@1", w: w, scale: 1, path: filepath.Join(b.dir, w.Name+".trace")}
			n, err := writeTrace(w, 1, in.path)
			if err != nil {
				return nil, err
			}
			if n != b.instr[i] {
				return nil, fmt.Errorf("%s: wrote %d events, set-up ran %d instructions", w.Name, n, b.instr[i])
			}
			in.events = n
			b.ins = append(b.ins, in)
		}
		b.probe = &layerProbe{dir: b.dir, seed: b.seed}
	}
	return b.probe.run(ctx, rec, job, b.ins)
}
