package main

import (
	"fmt"

	"paragraph/internal/core"
	"paragraph/internal/isa"
	"paragraph/internal/stats"
	"paragraph/internal/trace"
)

// refAnalyzer is a plain reference for the paper's dataflow configuration
// (core.Dataflow(core.SyscallConservative): registers, stack and data all
// renamed, unlimited window and functional units, perfect branches). It
// places each value-creating event at
//
//	Ldest = MAX(Lsrc1, Lsrc2, ..., highestLevel-1) + top
//
// with a Go map as the live well, one event at a time. Under full renaming
// the storage term Ddest+1 never applies, so only availability levels are
// kept. It shares no code with package core beyond the ISA tables, so a
// fault in the analyzer's live well, batching or histogram shows up as a
// mismatch.
type refAnalyzer struct {
	regs    map[isa.Reg]int64
	mem     map[uint32]int64
	highest int64 // firewall floor: nothing may begin above highest-1
	deepest int64
	anyOps  bool
	events  uint64
	ops     uint64
	levels  []uint64 // operations per DDG level
	srcBuf  []isa.Reg
}

func newRefAnalyzer() *refAnalyzer {
	return &refAnalyzer{regs: map[isa.Reg]int64{}, mem: map[uint32]int64{}}
}

// Event implements trace.Sink.
func (r *refAnalyzer) Event(e *trace.Event) error {
	r.events++
	op := e.Ins.Op
	info := op.Info()
	switch {
	case op == isa.NOP:
		return nil
	case e.Ins.Op == isa.SYSCALL || e.Ins.Op == isa.BREAK:
		// Conservative system call: placed just below a firewall after the
		// deepest operation yet seen; nothing later may rise above it.
		base := r.highest - 1
		if r.anyOps && r.deepest > base {
			base = r.deepest
		}
		ldest := base + int64(isa.SYSCALL.Latency())
		r.place(ldest)
		if ldest+1 > r.highest {
			r.highest = ldest + 1
		}
		return nil
	case info.IsJump:
		// A call's return address is a constant available at the floor.
		if d, ok := e.Ins.Dest(); ok {
			r.regs[d] = r.highest - 1
		}
		return nil
	case info.IsBranch:
		return nil
	}
	base := r.highest - 1
	r.srcBuf = e.Ins.SourceRegs(r.srcBuf[:0])
	for _, s := range r.srcBuf {
		if s == isa.Zero {
			continue
		}
		if l, ok := r.regs[s]; ok && l > base {
			base = l
		}
	}
	lo, hi := e.MemAddr>>2, (e.MemAddr+uint32(e.MemSize)-1)>>2
	if info.IsLoad {
		for w := lo; w <= hi; w++ {
			if l, ok := r.mem[w]; ok && l > base {
				base = l
			}
		}
	}
	ldest := base + int64(op.Latency())
	for _, d := range refDests(&e.Ins) {
		if d != isa.Zero {
			r.regs[d] = ldest
		}
	}
	if info.IsStore {
		for w := lo; w <= hi; w++ {
			r.mem[w] = ldest
		}
	}
	r.place(ldest)
	return nil
}

// refDests lists the registers an instruction writes.
func refDests(ins *isa.Instruction) []isa.Reg {
	info := ins.Op.Info()
	switch {
	case info.WritesRd:
		return []isa.Reg{ins.Rd}
	case info.WritesRt:
		return []isa.Reg{ins.Rt}
	case info.WritesHILO:
		switch ins.Op {
		case isa.MTHI:
			return []isa.Reg{isa.HI}
		case isa.MTLO:
			return []isa.Reg{isa.LO}
		}
		return []isa.Reg{isa.HI, isa.LO}
	case info.WritesFCC:
		return []isa.Reg{isa.FCC}
	}
	return nil
}

func (r *refAnalyzer) place(level int64) {
	r.ops++
	if !r.anyOps || level > r.deepest {
		r.deepest, r.anyOps = level, true
	}
	for int64(len(r.levels)) <= level {
		r.levels = append(r.levels, 0)
	}
	r.levels[level]++
}

// refResult is what the reference computes: the headline numbers and the
// parallelism profile bucketed the way the paper's Figure 7 reports it.
type refResult struct {
	Events       uint64
	Ops          uint64
	CriticalPath int64
	Available    float64
	BucketWidth  int64
	Profile      []stats.ProfilePoint
}

func (r *refAnalyzer) finish() refResult {
	out := refResult{Events: r.events, Ops: r.ops}
	if !r.anyOps {
		return out
	}
	out.CriticalPath = r.deepest + 1
	out.Available = float64(r.ops) / float64(out.CriticalPath)
	// The profile keeps at most stats.DefaultMaxBuckets buckets of a
	// power-of-two width; each point is the mean over the levels of its
	// bucket, the last bucket counting only levels up to the deepest.
	w := int64(1)
	for r.deepest/w >= stats.DefaultMaxBuckets {
		w *= 2
	}
	out.BucketWidth = w
	for start := int64(0); start <= r.deepest; start += w {
		end := min(start+w, r.deepest+1)
		var n uint64
		for l := start; l < end; l++ {
			n += r.levels[l]
		}
		out.Profile = append(out.Profile, stats.ProfilePoint{Level: start, Ops: float64(n) / float64(end-start)})
	}
	return out
}

// compare reports the first difference between an analyzer result and the
// reference: ops, critical path, available parallelism and every profile
// point must match exactly.
func (ref refResult) compare(what string, ops uint64, cp int64, avail float64, width int64, prof []stats.ProfilePoint) error {
	switch {
	case ops != ref.Ops:
		return fmt.Errorf("%s: %d operations, reference %d", what, ops, ref.Ops)
	case cp != ref.CriticalPath:
		return fmt.Errorf("%s: critical path %d, reference %d", what, cp, ref.CriticalPath)
	case avail != ref.Available:
		return fmt.Errorf("%s: available parallelism %v, reference %v", what, avail, ref.Available)
	case width != ref.BucketWidth:
		return fmt.Errorf("%s: profile bucket width %d, reference %d", what, width, ref.BucketWidth)
	case len(prof) != len(ref.Profile):
		return fmt.Errorf("%s: %d profile points, reference %d", what, len(prof), len(ref.Profile))
	}
	for i, p := range prof {
		if p != ref.Profile[i] {
			return fmt.Errorf("%s: profile point %d is %+v, reference %+v", what, i, p, ref.Profile[i])
		}
	}
	return nil
}

// compareResult checks a core.Result against the reference.
func (ref refResult) compareResult(what string, res *core.Result) error {
	if res.Instructions != ref.Events {
		return fmt.Errorf("%s: %d events analysed, trace has %d", what, res.Instructions, ref.Events)
	}
	return ref.compare(what, res.Operations, res.CriticalPath, res.Available, res.ProfileBucketWidth, res.Profile)
}
