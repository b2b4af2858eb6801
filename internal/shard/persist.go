package shard

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"paragraph/internal/core"
)

// File formats for distributed sharding: the plan travels as JSON (small,
// human-inspectable, diffable), shard results as gob behind a versioned
// magic (they embed histogram states and a checkpoint, where gob's exact
// float64 round-trip matters).

// WritePlan writes the plan as indented JSON.
func WritePlan(w io.Writer, p *Plan) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// ReadPlan reads a plan written by WritePlan.
func ReadPlan(r io.Reader) (*Plan, error) {
	var p Plan
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("shard: reading plan: %w", err)
	}
	return &p, nil
}

// SavePlan and LoadPlan are the file-path conveniences over
// WritePlan/ReadPlan.
func SavePlan(path string, p *Plan) error {
	var buf bytes.Buffer
	if err := WritePlan(&buf, p); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// LoadPlan reads a plan file written by SavePlan.
func LoadPlan(path string) (*Plan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadPlan(f)
}

// resultMagic versions the shard-result file format.
const resultMagic = "pgshard-result-v1\n"

// resultRecord is the gob payload of a shard-result file: the shard's
// Result plus, for every shard but the last, the outgoing analyzer state
// (core.WriteCheckpoint bytes) the next shard's process resumes from.
type resultRecord struct {
	Result     *Result
	Checkpoint []byte
}

// WriteResult writes one shard's result, and its outgoing checkpoint if
// any, to w.
func WriteResult(w io.Writer, res *Result, cp *core.Checkpoint) error {
	rec := resultRecord{Result: res}
	if cp != nil {
		var buf bytes.Buffer
		if err := core.WriteCheckpoint(&buf, cp); err != nil {
			return fmt.Errorf("shard %d: encoding checkpoint: %w", res.Index, err)
		}
		rec.Checkpoint = buf.Bytes()
	}
	if _, err := io.WriteString(w, resultMagic); err != nil {
		return err
	}
	if err := gob.NewEncoder(w).Encode(rec); err != nil {
		return fmt.Errorf("shard %d: encoding result: %w", res.Index, err)
	}
	return nil
}

// ReadResult reads a shard-result stream written by WriteResult. The
// returned checkpoint is nil when the file carries none (the last shard).
func ReadResult(r io.Reader) (*Result, *core.Checkpoint, error) {
	magic := make([]byte, len(resultMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, nil, fmt.Errorf("shard: reading result magic: %w", err)
	}
	if string(magic) != resultMagic {
		return nil, nil, fmt.Errorf("shard: not a shard-result file (magic %q)", magic)
	}
	var rec resultRecord
	if err := gob.NewDecoder(r).Decode(&rec); err != nil {
		return nil, nil, fmt.Errorf("shard: decoding result: %w", err)
	}
	if rec.Result == nil {
		return nil, nil, fmt.Errorf("shard: result file carries no result")
	}
	var cp *core.Checkpoint
	if len(rec.Checkpoint) > 0 {
		var err error
		cp, err = core.ReadCheckpoint(bytes.NewReader(rec.Checkpoint))
		if err != nil {
			return nil, nil, fmt.Errorf("shard %d: decoding checkpoint: %w", rec.Result.Index, err)
		}
	}
	return rec.Result, cp, nil
}

// SaveResult writes a shard-result file atomically: temp file, sync,
// rename — a crashed shard run never leaves a torn result for the next
// shard to resume from.
func SaveResult(path string, res *Result, cp *core.Checkpoint) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".pgshard-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := WriteResult(tmp, res, cp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadResult reads a shard-result file written by SaveResult.
func LoadResult(path string) (*Result, *core.Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return ReadResult(f)
}

// deltaMagic versions the speculative shard-delta file format. It is
// distinct from resultMagic so pgshard merge can sniff which kind of
// per-shard file it was handed.
//
// Version 2 layout, after the magic: a little-endian u32 length, that many
// bytes of gob-encoded deltaHeader (the Delta with its two word slices
// emptied, plus their lengths), then Locs and Code as raw little-endian
// 32-bit words. The record stream is most of a delta's bytes; writing it
// raw instead of through gob's per-element varint coding is what keeps
// persisting a delta cheap next to building it. Version 1 (all gob) files
// are rejected like any foreign file, so a resumed job rebuilds them.
const deltaMagic = "pgshard-delta-v2\n"

// deltaHeader is the gob-encoded part of a delta file.
type deltaHeader struct {
	// Delta carries every field of the delta except D.Locs and D.Code.
	Delta *Delta
	// Locs and Code are the lengths of the raw word sections that follow.
	Locs, Code uint64
}

// maxDeltaHeader bounds the gob header a reader accepts. A header is a
// config and a few counters; anything near this size is a damaged file.
const maxDeltaHeader = 16 << 20

// WriteDelta writes one shard's speculative delta to w.
func WriteDelta(w io.Writer, d *Delta) error {
	if d.D == nil {
		return fmt.Errorf("shard %d: delta carries no record stream", d.Index)
	}
	bare := *d.D
	bare.Locs, bare.Code = nil, nil
	meta := *d
	meta.D = &bare
	var hdr bytes.Buffer
	hdr.WriteString(deltaMagic)
	hdr.Write([]byte{0, 0, 0, 0}) // header length, patched below
	err := gob.NewEncoder(&hdr).Encode(deltaHeader{
		Delta: &meta, Locs: uint64(len(d.D.Locs)), Code: uint64(len(d.D.Code)),
	})
	if err != nil {
		return fmt.Errorf("shard %d: encoding delta: %w", d.Index, err)
	}
	b := hdr.Bytes()
	binary.LittleEndian.PutUint32(b[len(deltaMagic):], uint32(len(b)-len(deltaMagic)-4))
	if _, err := w.Write(b); err != nil {
		return err
	}
	if err := writeWords(w, d.D.Locs); err != nil {
		return err
	}
	return writeWords(w, d.D.Code)
}

// wordChunk is how many words the raw sections move per write or read.
const wordChunk = 16 << 10

// writeWords writes ws as little-endian 32-bit words.
func writeWords(w io.Writer, ws []uint32) error {
	buf := make([]byte, 4*min(len(ws), wordChunk))
	for len(ws) > 0 {
		n := min(len(ws), wordChunk)
		for i, v := range ws[:n] {
			binary.LittleEndian.PutUint32(buf[4*i:], v)
		}
		if _, err := w.Write(buf[:4*n]); err != nil {
			return err
		}
		ws = ws[n:]
	}
	return nil
}

// readWords reads n little-endian 32-bit words. The slice grows as words
// arrive, so a damaged length fails at end of input rather than by
// allocating whatever the length claims.
func readWords(r io.Reader, n uint64) ([]uint32, error) {
	ws := make([]uint32, 0, min(n, 1<<20))
	buf := make([]byte, 4*min(n, wordChunk))
	for uint64(len(ws)) < n {
		k := int(min(n-uint64(len(ws)), wordChunk))
		if _, err := io.ReadFull(r, buf[:4*k]); err != nil {
			return nil, err
		}
		for i := 0; i < k; i++ {
			ws = append(ws, binary.LittleEndian.Uint32(buf[4*i:]))
		}
	}
	return ws, nil
}

// ReadDelta reads a shard-delta stream written by WriteDelta.
func ReadDelta(r io.Reader) (*Delta, error) {
	magic := make([]byte, len(deltaMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("shard: reading delta magic: %w", err)
	}
	if string(magic) != deltaMagic {
		return nil, fmt.Errorf("shard: not a shard-delta file (magic %q)", magic)
	}
	br := bufio.NewReaderSize(r, 64<<10)
	var lenBuf [4]byte
	if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
		return nil, fmt.Errorf("shard: reading delta header: %w", err)
	}
	hlen := binary.LittleEndian.Uint32(lenBuf[:])
	if hlen > maxDeltaHeader {
		return nil, fmt.Errorf("shard: delta header of %d bytes", hlen)
	}
	hb := make([]byte, hlen)
	if _, err := io.ReadFull(br, hb); err != nil {
		return nil, fmt.Errorf("shard: reading delta header: %w", err)
	}
	var hdr deltaHeader
	if err := gob.NewDecoder(bytes.NewReader(hb)).Decode(&hdr); err != nil {
		return nil, fmt.Errorf("shard: decoding delta: %w", err)
	}
	if hdr.Delta == nil || hdr.Delta.D == nil {
		return nil, fmt.Errorf("shard: delta file carries no record stream")
	}
	d := hdr.Delta
	var err error
	if d.D.Locs, err = readWords(br, hdr.Locs); err != nil {
		return nil, fmt.Errorf("shard: reading delta slot table: %w", err)
	}
	if d.D.Code, err = readWords(br, hdr.Code); err != nil {
		return nil, fmt.Errorf("shard: reading delta records: %w", err)
	}
	return d, nil
}

// SaveDelta writes a shard-delta file atomically (temp, sync, rename),
// like SaveResult.
func SaveDelta(path string, d *Delta) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".pgshard-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := WriteDelta(tmp, d); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadDelta reads a shard-delta file written by SaveDelta.
func LoadDelta(path string) (*Delta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadDelta(f)
}
