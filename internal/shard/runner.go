package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"paragraph/internal/core"
	"paragraph/internal/trace"
)

// Source is a shard's event stream as RunShard and BuildShardDelta consume
// it: ReplayBatches delivers every event of the shard to sink in batches
// of at most trace.CtxCheckEvery, checking ctx between batches, and Stats
// reports the shard's read accounting once a replay has completed. A
// decoded *trace.EventBuffer (see DecodeShard) is a Source, for callers
// that replay one decode into several consumers; a *Section decodes the
// shard's byte range on the fly, for callers with one consumer.
type Source interface {
	ReplayBatches(ctx context.Context, sink trace.BatchSink) error
	Stats() trace.ReadStats
}

// Section is one shard's byte range as a Source. Each ReplayBatches call
// decodes the range in place (chunks are CRC-verified and decoded straight
// out of data) and hands every batch to the sink before decoding the next,
// so a shard attempt holds one batch of events rather than the whole
// shard, and events reach the consumer in trace order ahead of any later
// damage — a bad event before a corrupt chunk fails the way a monolithic
// read does.
type Section struct {
	data     []byte
	sh       Shard
	degraded bool
	stats    trace.ReadStats
}

// NewSection returns the Source for shard sh of the trace in data, read
// in the plan's mode.
func NewSection(data []byte, sh Shard, degraded bool) *Section {
	return &Section{data: data, sh: sh, degraded: degraded}
}

// ReplayBatches decodes the shard into sink. After the last batch it
// checks that the range delivered exactly the events the plan counted.
func (s *Section) ReplayBatches(ctx context.Context, sink trace.BatchSink) error {
	r, err := trace.NewBytesSectionReader(s.data, s.sh.Start, s.sh.End, trace.ReaderOptions{
		Degraded:      s.degraded,
		StartSeq:      s.sh.PrevSeq,
		StartSeqValid: s.sh.HavePrevSeq,
	})
	if err != nil {
		return err
	}
	done := ctx.Done()
	batch := make([]trace.Event, trace.DefaultBatchEvents)
	var got uint64
	for {
		if done != nil {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("trace: replay canceled at event %d: %w", got, err)
			}
		}
		n, rerr := r.ReadBatch(batch)
		if n > 0 {
			if err := sink.Events(batch[:n]); err != nil {
				return fmt.Errorf("trace: replay batch at event %d: %w", got, err)
			}
			got += uint64(n)
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return rerr
		}
	}
	s.stats = r.Stats()
	if got != s.sh.Events {
		return fmt.Errorf("decoded %d events, plan says %d (trace modified since Split?)", got, s.sh.Events)
	}
	return nil
}

// Stats returns the read accounting of the last completed replay.
func (s *Section) Stats() trace.ReadStats { return s.stats }

// DecodeShard decodes one shard's byte range into an EventBuffer, carrying
// the shard reader's ReadStats. The buffer can be replayed by any number of
// analyzers (different configs fan out over one decode). Decode honors ctx
// with the usual CtxCheckEvery granularity.
func DecodeShard(ctx context.Context, data []byte, sh Shard, degraded bool) (*trace.EventBuffer, error) {
	buf := &trace.EventBuffer{}
	buf.Grow(int(sh.Events)) // the plan counted this shard's events at Split time
	sect := NewSection(data, sh, degraded)
	if err := sect.ReplayBatches(ctx, buf); err != nil {
		return nil, fmt.Errorf("shard %d: %w", sh.Index, err)
	}
	buf.SetStats(sect.Stats())
	return buf, nil
}

// countingSink forwards batches to sink and counts the events delivered.
type countingSink struct {
	sink trace.BatchSink
	n    uint64
}

func (c *countingSink) Events(batch []trace.Event) error {
	c.n += uint64(len(batch))
	return c.sink.Events(batch)
}

// RunShard replays one shard's events through an analyzer that carries the
// state of all preceding shards (a fresh analyzer for shard 0, a
// checkpoint-restored one otherwise). It resets the mergeable accumulators
// at entry and harvests them after the replay, finishing the analysis on
// the last shard. When wantCheckpoint is set, the analyzer's outgoing state
// is snapshotted (before any finish) for handoff to the next shard's
// process.
func RunShard(ctx context.Context, a *core.Analyzer, src Source, cfg core.Config, sh Shard, total int, wantCheckpoint bool) (*Result, *core.Checkpoint, error) {
	if err := a.BeginShard(); err != nil {
		return nil, nil, fmt.Errorf("shard %d: %w", sh.Index, err)
	}
	counted := &countingSink{sink: a}
	if err := src.ReplayBatches(ctx, counted); err != nil {
		return nil, nil, fmt.Errorf("shard %d: %w", sh.Index, err)
	}
	res := &Result{
		Index:      sh.Index,
		Shards:     total,
		Config:     cfg,
		StartEvent: sh.StartEvent,
		Events:     counted.n,
		ReadStats:  src.Stats(),
	}
	var cp *core.Checkpoint
	if wantCheckpoint {
		cp = a.Snapshot()
	}
	if sh.Index == total-1 {
		fin, err := a.Finish()
		if err != nil {
			return nil, nil, fmt.Errorf("shard %d: %w", sh.Index, err)
		}
		res.Final = fin
	}
	// Harvest after Finish so the last shard's stats include end-of-trace
	// retirements (still-live values folded into lifetime/sharing).
	res.Stats = a.ShardStats()
	return res, cp, nil
}

// Analyze splits the trace into n shards and analyzes it under one config,
// returning the merged Result and the summed ReadStats — deep-equal to
// what a monolithic core.AnalyzeTraceOpts run over the same bytes returns.
func Analyze(ctx context.Context, data []byte, cfg core.Config, n int, opts Options) (*core.Result, trace.ReadStats, error) {
	results, rs, err := AnalyzeMulti(ctx, data, []core.Config{cfg}, n, opts)
	if err != nil {
		return nil, trace.ReadStats{}, err
	}
	return results[0], rs, nil
}

// AnalyzeMulti is the pipelined in-process shard driver: the trace is split
// once, each shard's byte range is decoded and validated by a bounded
// worker pool, and one analysis chain per config walks the shards in order,
// handing analyzer state from shard to shard. Decode of shard i+1 overlaps
// analysis of shard i, and every config's chain replays the same decoded
// buffers (single-decode fan-out). Errors are reported deterministically:
// the failing config with the lowest index wins.
func AnalyzeMulti(ctx context.Context, data []byte, cfgs []core.Config, n int, opts Options) ([]*core.Result, trace.ReadStats, error) {
	if len(cfgs) == 0 {
		return nil, trace.ReadStats{}, errors.New("shard: no configs to analyze")
	}
	plan, err := Split(data, n, opts)
	if err != nil {
		return nil, trace.ReadStats{}, err
	}
	return AnalyzePlan(ctx, data, cfgs, plan, opts)
}

// AnalyzePlan runs AnalyzeMulti's decode and analysis stages over an
// existing plan (for callers that persist plans, like the pgshard CLI).
func AnalyzePlan(ctx context.Context, data []byte, cfgs []core.Config, plan *Plan, opts Options) ([]*core.Result, trace.ReadStats, error) {
	if plan.TraceBytes != int64(len(data)) {
		return nil, trace.ReadStats{}, fmt.Errorf("shard: plan is for a %d-byte trace, have %d bytes", plan.TraceBytes, len(data))
	}
	workers := opts.Concurrency
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if opts.Speculate {
		return analyzePlanSpeculative(ctx, data, cfgs, plan, workers)
	}
	ns := len(plan.Shards)

	bufs, decErrs, ready := startDecode(ctx, data, plan, workers)

	// Analysis stage: one serial checkpoint-handoff chain per config, the
	// chains themselves running in parallel (bounded separately from the
	// decode pool — sharing one semaphore could deadlock the pipeline).
	results := make([]*core.Result, len(cfgs))
	readStats := make([]trace.ReadStats, len(cfgs))
	errs := make([]error, len(cfgs))
	anSem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for ci := range cfgs {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			anSem <- struct{}{}
			defer func() { <-anSem }()
			a := core.NewAnalyzer(cfgs[ci])
			parts := make([]*Result, ns)
			for si := range plan.Shards {
				<-ready[si]
				if decErrs[si] != nil {
					errs[ci] = fmt.Errorf("config %d: %w", ci, decErrs[si])
					return
				}
				part, _, err := RunShard(ctx, a, bufs[si], cfgs[ci], plan.Shards[si], ns, false)
				if err != nil {
					errs[ci] = fmt.Errorf("config %d: %w", ci, err)
					return
				}
				parts[si] = part
			}
			res, rs, err := Merge(parts)
			if err != nil {
				errs[ci] = fmt.Errorf("config %d: %w", ci, err)
				return
			}
			results[ci], readStats[ci] = res, rs
		}(ci)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, trace.ReadStats{}, err
		}
	}
	return results, readStats[0], nil
}

// startDecode launches the decode stage shared by the chained and
// speculative drivers: a bounded pool fills shard buffers; each buffer's
// ready channel closes when it is decoded, so downstream stages start on
// shard i while shard i+1 is still decoding.
func startDecode(ctx context.Context, data []byte, plan *Plan, workers int) (bufs []*trace.EventBuffer, decErrs []error, ready []chan struct{}) {
	ns := len(plan.Shards)
	bufs = make([]*trace.EventBuffer, ns)
	decErrs = make([]error, ns)
	ready = make([]chan struct{}, ns)
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	decSem := make(chan struct{}, workers)
	go func() {
		for i := range plan.Shards {
			decSem <- struct{}{}
			go func(i int) {
				defer func() { <-decSem; close(ready[i]) }()
				bufs[i], decErrs[i] = DecodeShard(ctx, data, plan.Shards[i], plan.Degraded)
			}(i)
		}
	}()
	return bufs, decErrs, ready
}
