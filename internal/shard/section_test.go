package shard

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"reflect"
	"strings"
	"testing"

	"paragraph/internal/core"
	"paragraph/internal/faultinject"
	"paragraph/internal/isa"
	"paragraph/internal/trace"
)

// TestPartitionEqualsSplit: one index partitioned at every shard count is
// the plan Split computes from the bytes, in both read modes.
func TestPartitionEqualsSplit(t *testing.T) {
	clean := synthTrace(t, 20000, 3, 512)
	damaged, err := faultinject.CorruptChunk(clean, 7, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		data     []byte
		degraded bool
	}{{"clean", clean, false}, {"clean-degraded", clean, true}, {"damaged-degraded", damaged, true}} {
		ix, err := Scan(tc.data, tc.degraded)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, n := range []int{1, 2, 5, 13, 1000} {
			want, err := Split(tc.data, n, Options{Degraded: tc.degraded})
			if err != nil {
				t.Fatalf("%s n=%d: %v", tc.name, n, err)
			}
			got, err := ix.Partition(n)
			if err != nil {
				t.Fatalf("%s n=%d: %v", tc.name, n, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s n=%d: Partition differs from Split", tc.name, n)
			}
		}
	}
	if _, err := (&Index{}).Partition(0); err == nil {
		t.Error("Partition(0) accepted")
	}
}

// TestSectionEqualsDecodedBuffer: a shard decoded straight into its
// analyzer or delta builder yields exactly what the decode-then-replay
// path yields — results, deltas and read stats — on clean and damaged
// traces.
func TestSectionEqualsDecodedBuffer(t *testing.T) {
	clean := synthTrace(t, 20000, 4, 512)
	damaged, err := faultinject.CorruptChunk(clean, 11, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fullConfig()
	ctx := context.Background()
	for _, tc := range []struct {
		name     string
		data     []byte
		degraded bool
	}{{"clean", clean, false}, {"damaged-degraded", damaged, true}} {
		plan, err := Split(tc.data, 4, Options{Degraded: tc.degraded})
		if err != nil {
			t.Fatal(err)
		}
		ns := len(plan.Shards)
		streamed, buffered := core.NewAnalyzer(cfg), core.NewAnalyzer(cfg)
		for i, sh := range plan.Shards {
			buf, err := DecodeShard(ctx, tc.data, sh, plan.Degraded)
			if err != nil {
				t.Fatal(err)
			}
			want, wantCP, err := RunShard(ctx, buffered, buf, cfg, sh, ns, i < ns-1)
			if err != nil {
				t.Fatal(err)
			}
			got, gotCP, err := RunShard(ctx, streamed, NewSection(tc.data, sh, plan.Degraded), cfg, sh, ns, i < ns-1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotCP, wantCP) {
				t.Errorf("%s shard %d: streamed RunShard differs from buffered", tc.name, i)
			}

			wantD, err := BuildShardDelta(ctx, buf, cfg, sh)
			if err != nil {
				t.Fatal(err)
			}
			sect := NewSection(tc.data, sh, plan.Degraded)
			gotD, err := BuildShardDelta(ctx, sect, cfg, sh)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotD, wantD) || sect.Stats() != buf.Stats() {
				t.Errorf("%s shard %d: streamed delta differs from buffered", tc.name, i)
			}
		}
	}
}

// TestSectionChecksPlannedCount: a section that delivers a different number
// of events than its plan counted fails instead of analyzing a different
// trace.
func TestSectionChecksPlannedCount(t *testing.T) {
	data := synthTrace(t, 5000, 5, 512)
	plan, err := Split(data, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sh := plan.Shards[1]
	sh.Events++
	a := core.NewAnalyzer(fullConfig())
	_, _, err = RunShard(context.Background(), a, NewSection(data, sh, false), fullConfig(), sh, 2, false)
	if err == nil || !strings.Contains(err.Error(), "plan says") {
		t.Fatalf("miscounted section: err = %v, want a plan-count mismatch", err)
	}
}

// badEventTrace writes the synthetic stream with one event the analyzer
// rejects (an ALU op carrying a memory access) at index bad.
func badEventTrace(t *testing.T, n, bad int) []byte {
	t.Helper()
	events := synthEvents(n, 6)
	events[bad] = trace.Event{PC: events[bad].PC, Ins: isa.Instruction{Op: isa.ADDU, Rd: isa.T0, Rs: isa.T1, Rt: isa.T2},
		MemAddr: 0x10000000, MemSize: 4, Seg: trace.SegData}
	var buf bytes.Buffer
	w, err := trace.NewWriterOpts(&buf, trace.WriterOptions{ChunkBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := range events {
		if err := w.Event(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSectionBadEventBeforeCorruptChunk: within one shard, an invalid event
// followed by a corrupt chunk fails with the monolithic read's error — the
// bad event's — in fail-fast and degraded mode, on both the chained and the
// speculative path. Events reach the consumer in trace order ahead of the
// damage, as they do in one pass over the file.
func TestSectionBadEventBeforeCorruptChunk(t *testing.T) {
	const n, bad = 30000, 12000
	clean := badEventTrace(t, n, bad)
	cleanPlan, err := Split(clean, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the chunk three chunks after the one holding the bad event.
	spans, _, err := trace.ScanChunkSpans(clean, false)
	if err != nil {
		t.Fatal(err)
	}
	var cum uint64
	target := -1
	for i, s := range spans {
		if cum+s.Events > bad {
			target = i + 3
			break
		}
		cum += s.Events
	}
	chunks, err := trace.ScanChunks(clean)
	if err != nil || len(chunks) != len(spans) {
		t.Fatalf("clean trace: %d chunks, %d spans (%v)", len(chunks), len(spans), err)
	}
	damaged, err := faultinject.CorruptChunk(clean, target, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fullConfig()
	ctx := context.Background()

	for _, degraded := range []bool{false, true} {
		_, monoErr := core.AnalyzeTraceOpts(ctx, bytes.NewReader(damaged), cfg, core.TwoPassOptions{Degraded: degraded})
		var want *core.BadEventError
		if !errors.As(monoErr, &want) || want.Index != bad {
			t.Fatalf("degraded=%v: monolithic error %v, want the bad event %d", degraded, monoErr, bad)
		}
		// A fail-fast plan of the damaged file cannot exist (the scan
		// stops at the corrupt chunk), so the shard runs against the plan
		// of the file before the damage — same length, same cut points.
		plan := cleanPlan
		if degraded {
			if plan, err = Split(damaged, 3, Options{Degraded: true}); err != nil {
				t.Fatal(err)
			}
		}
		sh := plan.Shards[1]
		if sh.StartEvent > bad || sh.Start > spans[target].Start || sh.End <= spans[target].Start {
			t.Fatalf("degraded=%v: shard 1 %+v does not hold both the bad event and the corrupt chunk", degraded, sh)
		}

		a := core.NewAnalyzer(cfg)
		if _, _, err := RunShard(ctx, a, NewSection(damaged, plan.Shards[0], degraded), cfg, plan.Shards[0], 3, false); err != nil {
			t.Fatalf("degraded=%v: shard 0: %v", degraded, err)
		}
		_, _, err := RunShard(ctx, a, NewSection(damaged, sh, degraded), cfg, sh, 3, false)
		var got *core.BadEventError
		if !errors.As(err, &got) || !reflect.DeepEqual(got, want) {
			t.Errorf("degraded=%v: chained shard error %v, want %v", degraded, err, monoErr)
		}

		d, err := BuildShardDelta(ctx, NewSection(damaged, sh, degraded), cfg, sh)
		got = nil
		if !errors.As(err, &got) || !reflect.DeepEqual(got, want) {
			t.Errorf("degraded=%v: speculative shard error %v, want %v", degraded, err, monoErr)
		}
		if d == nil || d.Events != bad-sh.StartEvent {
			t.Errorf("degraded=%v: failed build returned a prefix delta %v, want %d events", degraded, d, bad-sh.StartEvent)
		}
	}
}

// TestDeltaFileRoundTripAndV1: a v2 delta file reproduces the delta
// exactly, and a file in the retired all-gob v1 format is rejected as a
// foreign file rather than decoded.
func TestDeltaFileRoundTripAndV1(t *testing.T) {
	data := synthTrace(t, 8000, 8, 512)
	plan, err := Split(data, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sh := plan.Shards[1]
	sect := NewSection(data, sh, false)
	cd, err := BuildShardDelta(context.Background(), sect, fullConfig(), sh)
	if err != nil {
		t.Fatal(err)
	}
	d := &Delta{Index: 1, Shards: 2, Config: fullConfig(), ReadStats: sect.Stats(), D: cd}
	var buf bytes.Buffer
	if err := WriteDelta(&buf, d); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	got, err := ReadDelta(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Error("v2 round trip changed the delta")
	}
	for _, cut := range []int{len(deltaMagic) + 2, len(raw) / 2, len(raw) - 1} {
		if _, err := ReadDelta(bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("delta file cut to %d of %d bytes accepted", cut, len(raw))
		}
	}

	var v1 bytes.Buffer
	v1.WriteString("pgshard-delta-v1\n")
	if err := gob.NewEncoder(&v1).Encode(d); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDelta(&v1); err == nil || !strings.Contains(err.Error(), "not a shard-delta file") {
		t.Errorf("v1 delta file: err = %v, want rejection", err)
	}
}
