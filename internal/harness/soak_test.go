package harness

// The constant-memory soak. A -j 4 multi-config analysis fed through the
// bounded ring must hold its live heap flat (within 10%) from 1M events
// through 10M to 50M events of one synthetic trace — a 50× longer stream
// with the same footprint — while the ring's results stay deeply equal to
// a streaming (analyzer-fed-directly) pass over the identical event
// stream. The heap is read after a forced collection at fixed event
// counts, so the measurement does not depend on when the GC last ran.

import (
	"math/rand"
	"reflect"
	"runtime"
	"runtime/metrics"
	"testing"

	"paragraph/internal/core"
	"paragraph/internal/isa"
	"paragraph/internal/trace"
)

// soakConfigs: four finite-window, non-profiling configurations — each
// analyzer's live state is bounded by its window, so the whole pipeline's
// footprint is trace-length independent once event delivery is too.
func soakConfigs() []core.Config {
	var cfgs []core.Config
	for _, size := range []int{64, 256, 1024, 4096} {
		cfg := core.Dataflow(core.SyscallConservative)
		cfg.Profile = false
		cfg.WindowSize = size
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// soakStream emits n deterministic synthetic events (ALU, loads, stores,
// stack traffic, branches, the odd syscall) in batches through emit. The
// fixed seed makes every call produce the identical stream, so the ring run
// and the streaming reference analyze the same trace without ever
// materializing it. When at is non-nil it is called with the event count
// after each count listed in marks has been emitted (the partial batch is
// flushed first, so the consumers have been handed exactly that many
// events).
func soakStream(n int, emit func([]trace.Event) error, marks []int, at func(events int)) error {
	rng := rand.New(rand.NewSource(43))
	regs := []isa.Reg{isa.T0, isa.T1, isa.T2, isa.S0, isa.S1, isa.A0, isa.V0}
	r := func() isa.Reg { return regs[rng.Intn(len(regs))] }
	batch := make([]trace.Event, 0, trace.DefaultBatchEvents)
	pc := uint32(0x400000)
	for i := 0; i < n; i++ {
		var e trace.Event
		switch rng.Intn(10) {
		case 0, 1, 2:
			e = trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.ADDI, Rt: r(), Rs: r(), Imm: int32(rng.Intn(64) - 32)}}
		case 3, 4:
			e = trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.ADDU, Rd: r(), Rs: r(), Rt: r()}}
		case 5:
			addr := 0x10000000 + uint32(rng.Intn(1<<14))*4
			e = trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.LW, Rt: r(), Rs: isa.GP},
				MemAddr: addr, MemSize: 4, Seg: trace.SegData}
		case 6:
			addr := 0x10000000 + uint32(rng.Intn(1<<14))*4
			e = trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.SW, Rt: r(), Rs: isa.GP},
				MemAddr: addr, MemSize: 4, Seg: trace.SegData}
		case 7:
			addr := 0x7fff0000 + uint32(rng.Intn(1<<8))*4
			e = trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.SW, Rt: r(), Rs: isa.SP},
				MemAddr: addr, MemSize: 4, Seg: trace.SegStack}
		case 8:
			e = trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.BNE, Rs: r(), Rt: isa.Zero, Imm: -16},
				Taken: rng.Intn(2) == 0}
		default:
			if rng.Intn(50) == 0 {
				e = trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.SYSCALL}}
			} else {
				e = trace.Event{PC: pc, Ins: isa.Instruction{Op: isa.LUI, Rt: r(), Imm: int32(rng.Intn(1 << 10))}}
			}
		}
		batch = append(batch, e)
		mark := at != nil && len(marks) > 0 && i+1 == marks[0]
		if len(batch) == cap(batch) || mark {
			if err := emit(batch); err != nil {
				return err
			}
			batch = batch[:0]
		}
		if mark {
			at(marks[0])
			marks = marks[1:]
		}
		pc += 4
	}
	if len(batch) > 0 {
		return emit(batch)
	}
	return nil
}

// liveHeap returns the heap bytes still reachable after a full collection:
// the program's working set, with none of the not-yet-collected garbage
// that a HeapAlloc sample includes at a GC-timing-dependent amount.
func liveHeap() uint64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

func TestSoakConstantMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: skipped in -short mode")
	}
	if raceDetectorEnabled {
		t.Skip("soak: race instrumentation distorts heap accounting")
	}
	cfgs := soakConfigs()
	const events = 50_000_000
	marks := []int{1_000_000, 10_000_000, events}

	// The ring run: one 50M-event stream through the bounded ring with one
	// concurrent analyzer per config (-j 4 shape), the live heap read at
	// each mark from inside the producer.
	live := make([]uint64, 0, len(marks))
	produce := func(ring *trace.Ring) error {
		return soakStream(events, ring.Events, marks, func(int) { live = append(live, liveHeap()) })
	}
	ringRes, _, err := FanOutStream(t.Context(), produce, cfgs, 0)
	if err != nil {
		t.Fatalf("ring run: %v", err)
	}
	if len(live) != len(marks) {
		t.Fatalf("took %d live-heap reads, want %d", len(live), len(marks))
	}

	// The reference: each analyzer fed directly, serially — no ring, no
	// buffering, nothing between generator and analyzer. The 50M-event
	// stream is the one where a slot-reuse bug would scramble events.
	for i, cfg := range cfgs {
		a := core.NewAnalyzer(cfg)
		if err := soakStream(events, a.Events, nil, nil); err != nil {
			t.Fatalf("streaming run: %v", err)
		}
		want, err := a.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ringRes[i], want) {
			t.Errorf("config %d: ring diverged from streaming", i)
		}
	}

	for i, m := range marks {
		t.Logf("live heap after %d events: %.2f MiB", m, float64(live[i])/(1<<20))
	}
	for i := 1; i < len(marks); i++ {
		if float64(live[i]) > float64(live[0])*1.10 {
			t.Errorf("live heap grew with trace length: %d bytes at %d events vs %d bytes at %d events (>10%%)",
				live[i], marks[i], live[0], marks[0])
		}
	}
	// And a hard absolute ceiling: the ring (~1.8 MB) plus four
	// finite-window analyzers fit comfortably under 128 MiB; the recorded
	// buffer alone would need ~1.6 GB for the 50M-event trace.
	const ceiling = 128 << 20
	for i, l := range live {
		if l > ceiling {
			t.Errorf("live heap %d bytes exceeds the %d-byte ceiling at %d events", l, int64(ceiling), marks[i])
		}
	}
}
