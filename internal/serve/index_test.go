package serve

import (
	"bytes"
	"context"
	"encoding/gob"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"paragraph/internal/core"
	"paragraph/internal/shard"
	"paragraph/internal/trace"
)

// monolithicResult is the independent reference for a job: one
// core.AnalyzeTraceOpts pass over the whole trace.
func monolithicResult(t *testing.T, data []byte, degraded bool) (*core.Result, trace.ReadStats) {
	t.Helper()
	var rs trace.ReadStats
	res, err := core.AnalyzeTraceOpts(context.Background(), bytes.NewReader(data), testConfig,
		core.TwoPassOptions{Degraded: degraded, Stats: &rs})
	if err != nil {
		t.Fatal(err)
	}
	return res, rs
}

// submitModeJob submits one job with explicit engine and read mode.
func submitModeJob(t *testing.T, api, tid string, shards int, speculate, degraded bool) string {
	t.Helper()
	var resp map[string]string
	code, raw := postJSON(t, api+"/v1/jobs", map[string]any{
		"trace": tid, "config": testConfig, "shards": shards,
		"speculate": speculate, "degraded": degraded,
	}, &resp)
	if code != http.StatusAccepted {
		t.Fatalf("submitting job: status %d: %s", code, raw)
	}
	return resp["id"]
}

// checkJob waits for a job and requires it to finish done with the
// monolithic result.
func checkJob(t *testing.T, api, jid string, want *core.Result, wantRS trace.ReadStats) {
	t.Helper()
	if v := waitJob(t, api, jid); v.State != StateDone {
		t.Fatalf("job %s finished %q, want done: %+v", jid, v.State, v)
	}
	got := fetchGobResult(t, api, jid)
	if !reflect.DeepEqual(got.Result, want) {
		t.Errorf("job %s: result differs from monolithic analysis", jid)
	}
	if got.ReadStats != wantRS {
		t.Errorf("job %s: read stats %+v, want %+v", jid, got.ReadStats, wantRS)
	}
}

// runJobTo runs one job to completion and checks it against the
// monolithic result.
func runJobTo(t *testing.T, api, tid string, shards int, speculate, degraded bool, want *core.Result, wantRS trace.ReadStats) {
	t.Helper()
	checkJob(t, api, submitModeJob(t, api, tid, shards, speculate, degraded), want, wantRS)
}

// TestDaemonPlansEachTraceOnce: the chunk index of a local trace is built
// by the first job in each read mode and reused by every later job on the
// unchanged file — whatever its shard count or engine — with results still
// deep-equal to the monolithic analysis.
func TestDaemonPlansEachTraceOnce(t *testing.T) {
	data := synthTrace(t, 20000, 21)
	path := writeTraceFile(t, data)
	s, api := testServer(t, t.TempDir(), nil)
	tid := registerTrace(t, api, path)
	if n := s.indexScans.Load(); n != 0 {
		t.Fatalf("registration scanned the trace %d times, want 0", n)
	}
	want, wantRS := monolithicResult(t, data, false)

	runJobTo(t, api, tid, 5, false, false, want, wantRS)
	if n := s.indexScans.Load(); n != 1 {
		t.Fatalf("after the first job: %d scans, want 1", n)
	}
	runJobTo(t, api, tid, 5, false, false, want, wantRS)
	runJobTo(t, api, tid, 3, true, false, want, wantRS)
	if n := s.indexScans.Load(); n != 1 {
		t.Fatalf("later jobs on the unchanged trace rescanned it: %d scans, want 1", n)
	}

	// Degraded reads cut differently, so they get their own index.
	runJobTo(t, api, tid, 4, false, true, want, wantRS)
	runJobTo(t, api, tid, 2, true, true, want, wantRS)
	if n := s.indexScans.Load(); n != 2 {
		t.Fatalf("after degraded jobs: %d scans, want 2 (one per read mode)", n)
	}
}

// TestDaemonRescansRewrittenTrace: a registered trace rewritten between jobs
// — to a new size, or to the same bytes under a new mtime — is rescanned,
// and the job's result is the monolithic analysis of the new contents.
func TestDaemonRescansRewrittenTrace(t *testing.T) {
	first := synthTrace(t, 20000, 22)
	path := writeTraceFile(t, first)
	s, api := testServer(t, t.TempDir(), nil)
	tid := registerTrace(t, api, path)
	want, wantRS := monolithicResult(t, first, false)
	runJobTo(t, api, tid, 4, false, false, want, wantRS)

	// New size (and contents).
	second := synthTrace(t, 26000, 23)
	if len(second) == len(first) {
		t.Fatal("test traces must differ in size")
	}
	stamp := time.Now().Add(time.Hour).Truncate(time.Second)
	if err := os.WriteFile(path, second, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, stamp, stamp); err != nil {
		t.Fatal(err)
	}
	want, wantRS = monolithicResult(t, second, false)
	runJobTo(t, api, tid, 4, false, false, want, wantRS)
	if n := s.indexScans.Load(); n != 2 {
		t.Fatalf("after a size change: %d scans, want 2", n)
	}
	runJobTo(t, api, tid, 4, true, false, want, wantRS)
	if n := s.indexScans.Load(); n != 2 {
		t.Fatalf("unchanged since the rescan: %d scans, want 2", n)
	}

	// Same size, new mtime.
	stamp = stamp.Add(time.Hour)
	if err := os.Chtimes(path, stamp, stamp); err != nil {
		t.Fatal(err)
	}
	runJobTo(t, api, tid, 3, false, false, want, wantRS)
	if n := s.indexScans.Load(); n != 3 {
		t.Fatalf("after an mtime change: %d scans, want 3", n)
	}
}

// TestDaemonConcurrentFirstJobsScanOnce: jobs that arrive together on a new
// trace wait for one scan rather than each running their own.
func TestDaemonConcurrentFirstJobsScanOnce(t *testing.T) {
	data := synthTrace(t, 20000, 24)
	path := writeTraceFile(t, data)
	s, api := testServer(t, t.TempDir(), func(o *Options) { o.Workers = 4 })
	tid := registerTrace(t, api, path)
	want, wantRS := monolithicResult(t, data, false)
	var jids []string
	for i := 0; i < 4; i++ {
		jids = append(jids, submitModeJob(t, api, tid, 2+i, i%2 == 1, false))
	}
	for _, jid := range jids {
		checkJob(t, api, jid, want, wantRS)
	}
	if n := s.indexScans.Load(); n != 1 {
		t.Fatalf("%d concurrent first jobs ran %d scans, want 1", 4, n)
	}
}

// writeDeltaV1 writes d in the retired all-gob delta format: the v1 magic
// followed by one gob-encoded Delta.
func writeDeltaV1(t *testing.T, path string, d *shard.Delta) {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString("pgshard-delta-v1\n")
	if err := gob.NewEncoder(&buf).Encode(d); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonRebuildsV1DeltaOnResume: a speculative job interrupted after
// its first splice resumes over a state directory in which one persisted
// delta is in the retired v1 format. The v1 file is not loaded; its shard
// is rebuilt (one attempt, rewritten as v2), the other persisted delta is
// reused untouched, and the result is the monolithic analysis.
func TestDaemonRebuildsV1DeltaOnResume(t *testing.T) {
	data := synthTrace(t, 20000, 25)
	path := writeTraceFile(t, data)
	stateDir := t.TempDir()

	s1, api1 := testServer(t, stateDir, nil)
	crashed := make(chan struct{})
	var once sync.Once
	s1.afterShard = func(jobID string, i int) {
		if i == 0 {
			once.Do(func() {
				s1.cancel()
				close(crashed)
			})
		}
	}
	tid := registerTrace(t, api1, path)
	jid := submitSpeculativeJob(t, api1, tid, testConfig, 4)
	select {
	case <-crashed:
	case <-time.After(60 * time.Second):
		t.Fatal("speculative job never spliced its first shard")
	}
	s1.kill()

	jobDir := filepath.Join(stateDir, "jobs", jid)
	v1Path := filepath.Join(jobDir, "shard-2.pgsd")
	d, err := shard.LoadDelta(v1Path)
	if err != nil {
		t.Fatalf("crashed daemon left no delta for shard 2: %v", err)
	}
	writeDeltaV1(t, v1Path, d)
	if _, err := shard.LoadDelta(v1Path); err == nil {
		t.Fatal("LoadDelta accepted a v1 delta file")
	}

	_, api2 := testServer(t, stateDir, nil)
	v := waitJob(t, api2, jid)
	if v.State != StateDone {
		t.Fatalf("resumed job finished %q, want done: %+v", v.State, v)
	}
	if got := v.Shards[2].Attempts; got != 1 {
		t.Errorf("shard 2 (v1 delta) ran %d attempts after resume, want 1 rebuild", got)
	}
	if got := v.Shards[3].Attempts; got != 0 {
		t.Errorf("shard 3 (v2 delta) ran %d attempts after resume, want 0: its delta should be reused", got)
	}
	rebuilt, err := shard.LoadDelta(v1Path)
	if err != nil {
		t.Fatalf("rebuilt delta is unreadable: %v", err)
	}
	if !reflect.DeepEqual(rebuilt, d) {
		t.Error("rebuilt delta differs from the one the crashed daemon built")
	}
	want, wantRS := monolithicResult(t, data, false)
	got := fetchGobResult(t, api2, jid)
	if !reflect.DeepEqual(got.Result, want) {
		t.Error("resumed result differs from monolithic analysis")
	}
	if got.ReadStats != wantRS {
		t.Errorf("resumed read stats %+v, want %+v", got.ReadStats, wantRS)
	}
}
