package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function. Spans of one
// traced job share Job; Parent names the enclosing span (0 for none).
// Events is the number of trace events the call handled and Input the
// trace (or analogue) they came from; Part separates calls of one layer
// that each handle the whole input, such as one scheduler per window size.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Job    int     `json:"job"`
	Name   string  `json:"name"`
	Input  string  `json:"input"`
	Part   string  `json:"part,omitempty"`
	Start  float64 `json:"start_ms"` // since the recorder was created
	End    float64 `json:"end_ms"`
	Events uint64  `json:"events"`
	Alloc  uint64  `json:"alloc_bytes"`
}

// recorder keeps spans in memory; write dumps them at exit. It is safe for
// concurrent use, though allocation counts are only meaningful for spans
// that do not overlap others.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// want is each input's event count: every (job, layer, input, part)
	// group of spans must add up to it.
	want map[string]uint64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), want: map[string]uint64{}}
}

func (r *recorder) expect(input string, events uint64) {
	r.mu.Lock()
	r.want[input] = events
	r.mu.Unlock()
}

// openSpan is a span in progress.
type openSpan struct {
	r      *recorder
	s      span
	start  time.Time
	alloc0 uint64
}

// begin opens a span; end closes it with the number of events handled.
func (r *recorder) begin(job, parent int, name, input, part string) *openSpan {
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{}) // reserve the id
	r.mu.Unlock()
	o := &openSpan{r: r, s: span{ID: id, Parent: parent, Job: job, Name: name, Input: input, Part: part}}
	o.alloc0 = allocBytes()
	o.start = time.Now()
	return o
}

func (o *openSpan) id() int { return o.s.ID }

func (o *openSpan) end(events uint64) time.Duration {
	end := time.Now()
	o.s.Alloc = allocBytes() - o.alloc0
	o.s.Events = events
	o.s.Start = ms(o.start.Sub(o.r.t0))
	o.s.End = ms(end.Sub(o.r.t0))
	o.r.mu.Lock()
	o.r.spans[o.s.ID-1] = o.s
	o.r.mu.Unlock()
	return end.Sub(o.start)
}

type spanKey struct {
	job               int
	name, input, part string
}

// verify checks that every layer handled every event of its input: for
// each job, layer, input and part, the events counted inside the spans
// must equal the input's event count. A layer call that touched no event
// therefore fails the run instead of reporting a number.
func (r *recorder) verify(job int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	sums := map[spanKey]uint64{}
	for _, s := range r.spans {
		if s.Job == job && s.Input != "" {
			sums[spanKey{s.Job, s.Name, s.Input, s.Part}] += s.Events
		}
	}
	keys := make([]spanKey, 0, len(sums))
	for k := range sums {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.name != b.name {
			return a.name < b.name
		}
		if a.input != b.input {
			return a.input < b.input
		}
		return a.part < b.part
	})
	for _, k := range keys {
		want, ok := r.want[k.input]
		if !ok {
			return fmt.Errorf("span %s over %q: input has no recorded event count", k.name, k.input)
		}
		if sums[k] != want {
			return fmt.Errorf("span %s over %q %s: handled %d events, input has %d", k.name, k.input, k.part, sums[k], want)
		}
	}
	return nil
}

// layerTotals sums one job's spans of a layer: total time, total
// allocation, and the event count of the distinct inputs they covered
// (each input counted once however many parts handled it).
func (r *recorder) layerTotals(job int, name string) (dur time.Duration, alloc, events uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := map[string]bool{}
	for _, s := range r.spans {
		if s.Job != job || s.Name != name {
			continue
		}
		dur += time.Duration((s.End - s.Start) * float64(time.Millisecond))
		alloc += s.Alloc
		if !seen[s.Input] {
			seen[s.Input] = true
			events += r.want[s.Input]
		}
	}
	return dur, alloc, events
}

// write dumps every span as JSON.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.MarshalIndent(r.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// add records a span measured from timestamps taken elsewhere, such as the
// client-observed phases of a pgserved job.
func (r *recorder) add(job, parent int, name, input, part string, start, end time.Time, events uint64) {
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Job: job, Name: name, Input: input, Part: part,
		Start: ms(start.Sub(r.t0)), End: ms(end.Sub(r.t0)), Events: events})
	r.mu.Unlock()
}

// perCall returns, for each named layer, the median duration in ms of one
// job's spans of that layer.
func (r *recorder) perCall(job int, names []string) map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	durs := map[string][]float64{}
	for _, s := range r.spans {
		if s.Job == job {
			durs[s.Name] = append(durs[s.Name], s.End-s.Start)
		}
	}
	out := map[string]float64{}
	for _, n := range names {
		if d := durs[n]; len(d) > 0 {
			out[n] = median(d)
		}
	}
	return out
}
