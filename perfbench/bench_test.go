package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestShortRuns runs every workload in short mode, untraced and traced,
// through the same set-up, job, check and metric code as a full run, and
// requires a correct result carrying every metric BENCHMARK.json declares.
func TestShortRuns(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		for _, traced := range []bool{false, true} {
			want := bench.EndToEnd
			if traced {
				want = bench.PerLayer
			}
			res, _, err := run(context.Background(), w.Name, 7, time.Second, traced, true)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if _, ok := res.Metrics[m.Name]; !ok {
					t.Errorf("%s traced=%v: no %s", w.Name, traced, m.Name)
				}
			}
		}
	}
}

// TestVerifyRejectsIdleSpan is the failure mode of a layer measurement
// that touches no event: its span must fail verification, not report a
// number.
func TestVerifyRejectsIdleSpan(t *testing.T) {
	rec := newRecorder()
	rec.expect("in", 10)
	rec.begin(1, 0, "core.analyzer", "in", "").end(10)
	rec.begin(1, 0, "core.resolve", "in", "").end(0)
	if err := rec.verify(1); err == nil {
		t.Fatal("a span that handled no event passed verification")
	}
	rec = newRecorder()
	rec.expect("in", 10)
	rec.begin(1, 0, "core.analyzer", "in", "").end(4)
	rec.begin(1, 0, "core.analyzer", "in", "").end(6)
	if err := rec.verify(1); err != nil {
		t.Fatalf("windowed spans covering the input failed verification: %v", err)
	}
}
