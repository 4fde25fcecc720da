package main

import (
	"bufio"
	"encoding/json"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vfs"
	"repro/internal/wire"
)

// Tracing lives entirely in the benchmark: wrappers around the public
// seams the program already exposes (its http.Handler, its wire.Handler,
// its vfs.FS) record spans in memory, and the layer descent records one
// span per replayed call. Nothing is instrumented inside the program.

// span is one timed call at a layer boundary. Spans of one batch share
// an ID across layers: the client's sequence index for HTTP batches,
// wireID(site, seq) for wire blocks.
type span struct {
	Layer string `json:"layer"`
	ID    int64  `json:"id"`
	Start int64  `json:"start_ns"` // since epoch
	End   int64  `json:"end_ns"`
	Bytes int64  `json:"bytes,omitempty"`
}

func newSpan(layer string, id int64, start, end time.Time, bytes int64) span {
	return span{Layer: layer, ID: id, Start: start.Sub(epoch).Nanoseconds(), End: end.Sub(epoch).Nanoseconds(), Bytes: bytes}
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// recorder keeps spans in memory until the run writes them out.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *recorder) record(layer string, id int64, start, end time.Time, bytes int64) {
	r.add(newSpan(layer, id, start, end, bytes))
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// layer returns the spans recorded at one layer, in recording order.
func (r *recorder) layer(name string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Layer == name {
			out = append(out, s)
		}
	}
	return out
}

// writeJSONL writes every span, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// batchHeader carries the client's batch id so the handler span can be
// paired with the client span and the descent's spans for the same batch.
const batchHeader = "X-Bench-Batch"

// httpTap times every request the wrapped handler serves.
type httpTap struct {
	next http.Handler
	rec  *recorder
}

func (h httpTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, _ := strconv.ParseInt(r.Header.Get(batchHeader), 10, 64)
	start := time.Now()
	h.next.ServeHTTP(w, r)
	h.rec.record(httpLayer(r.URL.Path), id, start, time.Now(), r.ContentLength)
}

// httpLayer names the span layer of a request path.
func httpLayer(path string) string {
	switch {
	case strings.HasSuffix(path, "/rows"):
		return "http.rows"
	case strings.HasSuffix(path, "/items"):
		return "http.items"
	case strings.HasSuffix(path, "/query"):
		return "http.query"
	}
	return "http.other"
}

// wireTap times every block the wrapped wire.Handler applies.
type wireTap struct {
	next wire.Handler
	rec  *recorder
}

func (t wireTap) Hello(tracker string, site int) (applied, durable uint64, err error) {
	return t.next.Hello(tracker, site)
}

func (t wireTap) RowBlock(tracker string, site int, seq uint64, rows [][]float64) (applied, durable uint64, err error) {
	start := time.Now()
	applied, durable, err = t.next.RowBlock(tracker, site, seq, rows)
	t.rec.record("wire.rowblock", wireID(site, seq), start, time.Now(), 0)
	return applied, durable, err
}

// wireID is the batch id of a site's seq-th block.
func wireID(site int, seq uint64) int64 { return int64(site)<<40 | int64(seq) }

// fsTap wraps a vfs.FS: it times fsyncs (file and directory) and counts
// the bytes read and written, split between WAL segments and everything
// else (checkpoints).
type fsTap struct {
	vfs.FS
	rec *recorder

	read, walWritten, ckptWritten atomic.Int64
}

func (f *fsTap) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &fileTap{File: file, fs: f, wal: filepath.Base(filepath.Dir(name)) == "wal"}, nil
}

func (f *fsTap) SyncDir(name string) error {
	start := time.Now()
	err := f.FS.SyncDir(name)
	f.rec.record("vfs.fsync", 0, start, time.Now(), 0)
	return err
}

type fileTap struct {
	vfs.File
	fs  *fsTap
	wal bool
}

func (t *fileTap) Read(p []byte) (int, error) {
	n, err := t.File.Read(p)
	t.fs.read.Add(int64(n))
	return n, err
}

func (t *fileTap) Write(p []byte) (int, error) {
	n, err := t.File.Write(p)
	if t.wal {
		t.fs.walWritten.Add(int64(n))
	} else {
		t.fs.ckptWritten.Add(int64(n))
	}
	return n, err
}

func (t *fileTap) Sync() error {
	start := time.Now()
	err := t.File.Sync()
	t.fs.rec.record("vfs.fsync", 0, start, time.Now(), 0)
	return err
}
