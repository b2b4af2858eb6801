package serve

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"paragraph/internal/shard"
)

// Per-trace chunk indexes. Planning a job is a scan of the trace (decode
// every event once to find the chunk spans) plus a partition of the spans
// by the job's shard count; only the partition depends on the job. The
// server therefore keeps the scan of each registered local trace, per read
// mode, and revalidates it against the file's size and mtime on every job.

// readLocal reads a local trace whole, with the modification time the file
// had before the read. Statting first means a write racing the read leaves
// a newer mtime behind, so the next job's index check sees the change.
func readLocal(path string) ([]byte, time.Time, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, time.Time{}, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, time.Time{}, err
	}
	data := make([]byte, fi.Size())
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, time.Time{}, fmt.Errorf("reading %d-byte trace: %w", fi.Size(), err)
	}
	return data, fi.ModTime(), nil
}

// indexKey names one cached chunk index: a registered local trace under
// one read mode (cut points differ between fail-fast and degraded reads).
type indexKey struct {
	trace    string
	degraded bool
}

// cachedIndex is one trace's chunk index and the file size and mtime it
// was scanned at. Its mutex serializes scans, so jobs that arrive together
// on a new trace wait for one scan instead of each running their own.
type cachedIndex struct {
	mu    sync.Mutex
	size  int64
	mtime time.Time
	ix    *shard.Index
}

// traceIndex returns the chunk index of a local trace whose bytes the job
// has just read, scanning only when no index exists for the trace and read
// mode, or when the file's size or mtime differs from the scanned one. A
// failed scan is not cached.
func (s *Server) traceIndex(id string, degraded bool, data []byte, mtime time.Time) (*shard.Index, error) {
	key := indexKey{trace: id, degraded: degraded}
	s.mu.Lock()
	c := s.indexes[key]
	if c == nil {
		c = &cachedIndex{}
		s.indexes[key] = c
	}
	s.mu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	size := int64(len(data))
	if c.ix != nil && c.size == size && c.mtime.Equal(mtime) {
		return c.ix, nil
	}
	s.indexScans.Add(1)
	ix, err := shard.Scan(data, degraded)
	if err != nil {
		c.ix = nil
		return nil, err
	}
	c.ix, c.size, c.mtime = ix, size, mtime
	return ix, nil
}
