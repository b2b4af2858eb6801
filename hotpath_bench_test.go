package paragraph

// Hot-path benchmarks: each benchmark pits the pre-existing slow path
// (bufio streaming reads, per-event delivery) against the zero-copy/batched
// fast path over identical bytes, so one run produces the before/after
// ns/event table for the three stages of the pipeline — raw trace decode,
// buffered replay, and full analysis. `make bench` captures them in
// BENCH_hotpath.json; the differential battery proves the two paths are
// observationally identical, these prove the fast one is faster.

import (
	"bytes"
	"context"
	"io"
	"testing"

	"paragraph/internal/core"
	"paragraph/internal/cpu"
	"paragraph/internal/minic"
	"paragraph/internal/trace"
	"paragraph/internal/workloads"
)

// hotPathTrace simulates naskerx once and returns its v2 trace bytes and
// event count, cached across benchmarks of one run.
var hotPathCache struct {
	data   []byte
	events int
}

func hotPathTrace(b *testing.B) ([]byte, int) {
	b.Helper()
	if hotPathCache.data != nil {
		return hotPathCache.data, hotPathCache.events
	}
	w, _ := workloads.ByName("naskerx")
	prog, err := w.Build(*benchScale, minic.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var enc bytes.Buffer
	tw, err := trace.NewWriter(&enc)
	if err != nil {
		b.Fatal(err)
	}
	m, err := cpu.New(prog, cpu.WithTrace(tw))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Run(0); err != nil {
		b.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		b.Fatal(err)
	}
	hotPathCache.data = enc.Bytes()
	hotPathCache.events = int(tw.Count())
	return hotPathCache.data, hotPathCache.events
}

// BenchmarkHotPathRead decodes the trace bytes end to end: the bufio
// streaming reader (before) against the zero-copy bytes reader (after),
// both drained through the batch API so only byte acquisition differs.
func BenchmarkHotPathRead(b *testing.B) {
	data, events := hotPathTrace(b)
	makeReader := map[string]func() (*trace.Reader, error){
		"impl=bufio": func() (*trace.Reader, error) {
			return trace.NewReader(bytes.NewReader(data))
		},
		"impl=zerocopy": func() (*trace.Reader, error) {
			return trace.NewBytesReader(data, trace.ReaderOptions{})
		},
	}
	for _, name := range []string{"impl=bufio", "impl=zerocopy"} {
		mk := makeReader[name]
		b.Run(name, func(b *testing.B) {
			batch := make([]trace.Event, trace.DefaultBatchEvents)
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				r, err := mk()
				if err != nil {
					b.Fatal(err)
				}
				got := 0
				for {
					n, err := r.ReadBatch(batch)
					got += n
					if err == io.EOF {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				if got != events {
					b.Fatalf("decoded %d events, want %d", got, events)
				}
			}
			reportPerEvent(b, events)
		})
	}
}

// BenchmarkHotPathReplay replays a decoded EventBuffer into a sink:
// per-event delivery through the exported copying Replay (before) against
// batched slice delivery (after). Both sinks read every event (they fold
// its PC), so the comparison prices delivery of events a consumer actually
// touches; a sink that only counted batch lengths would measure nothing
// per event.
func BenchmarkHotPathReplay(b *testing.B) {
	data, events := hotPathTrace(b)
	r, err := trace.NewBytesReader(data, trace.ReaderOptions{})
	if err != nil {
		b.Fatal(err)
	}
	buf, err := trace.ReadAll(r)
	if err != nil {
		b.Fatal(err)
	}
	var want uint64
	_ = buf.Replay(trace.SinkFunc(func(e *trace.Event) error { want += uint64(e.PC); return nil }))

	b.Run("impl=perevent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var sum uint64
			sink := trace.SinkFunc(func(e *trace.Event) error {
				sum += uint64(e.PC)
				return nil
			})
			if err := buf.Replay(sink); err != nil {
				b.Fatal(err)
			}
			if sum != want {
				b.Fatalf("PC fold %d, want %d", sum, want)
			}
		}
		reportPerEvent(b, events)
	})
	b.Run("impl=batch", func(b *testing.B) {
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			var sum uint64
			sink := trace.BatchFunc(func(batch []trace.Event) error {
				for j := range batch {
					sum += uint64(batch[j].PC)
				}
				return nil
			})
			if err := buf.ReplayBatches(ctx, sink); err != nil {
				b.Fatal(err)
			}
			if sum != want {
				b.Fatalf("PC fold %d, want %d", sum, want)
			}
		}
		reportPerEvent(b, events)
	})
}

// BenchmarkHotPathAnalysis is the end-to-end number: stored trace bytes
// through reader and analyzer to a finished Result. Before: bufio reads,
// one Event call per instruction. After: zero-copy chunk decode, batched
// Events delivery.
func BenchmarkHotPathAnalysis(b *testing.B) {
	data, events := hotPathTrace(b)
	cfg := core.Dataflow(core.SyscallConservative)
	cfg.Profile = false

	b.Run("impl=perevent", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			r, err := trace.NewReader(bytes.NewReader(data))
			if err != nil {
				b.Fatal(err)
			}
			a := core.NewAnalyzer(cfg)
			if err := r.ForEach(a.Event); err != nil {
				b.Fatal(err)
			}
			a.MustFinish()
		}
		reportPerEvent(b, events)
	})
	b.Run("impl=batch", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			r, err := trace.NewBytesReader(data, trace.ReaderOptions{})
			if err != nil {
				b.Fatal(err)
			}
			a := core.NewAnalyzer(cfg)
			if err := r.ForEachBatch(a.Events); err != nil {
				b.Fatal(err)
			}
			a.MustFinish()
		}
		reportPerEvent(b, events)
	})
}

func reportPerEvent(b *testing.B, events int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(events)*float64(b.N)), "ns/event")
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}
