package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	distmat "repro"
	"repro/internal/service"
	"repro/internal/vfs"
)

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
		if c.want > 0 && beyond(c.n, c.want) < minTail {
			t.Errorf("n=%d: p%v has %d samples beyond it", c.n, c.want, beyond(c.n, c.want))
		}
	}
}

func TestSummarizeStatesCountAndSupportedPercentile(t *testing.T) {
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(500 - i) // 1..500, unsorted
	}
	d := summarize(xs)
	if d.n != 500 || d.p50 != 250 || d.p99 != 495 || d.tail != 90 || d.at != 450 {
		t.Fatalf("summarize = %+v", d)
	}
	note := d.p99Note()
	for _, want := range []string{"n=500", "5 samples beyond", "p90 = 450"} {
		if !strings.Contains(note, want) {
			t.Errorf("note %q lacks %q", note, want)
		}
	}
	if note := summarize(make([]float64, 1000)).p99Note(); note != "n=1000" {
		t.Errorf("supported p99 note = %q", note)
	}
}

func TestSelfTimesPairByID(t *testing.T) {
	ms := func(layer string, id int64, start, durMS int64) span {
		return span{Layer: layer, ID: id, Start: start, End: start + durMS*1e6}
	}
	parent := []span{ms("http", 1, 0, 10), ms("http", 2, 100, 7), ms("http", 3, 200, 5)}
	child := []span{ms("svc", 3, 0, 2), ms("svc", 2, 50, 4), ms("svc", 9, 0, 1)}
	got := selfTimes(parent, child)
	want := []float64{3, 3} // ids 2 and 3, in parent order; 1 and 9 are unmatched
	if len(got) != len(want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("selfTimes = %v, want %v", got, want)
		}
	}
	if b := busy(parent); math.Abs(b-0.022) > 1e-12 {
		t.Fatalf("busy = %v, want 0.022", b)
	}
}

func TestHTTPTapDelegatesByteForByte(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("X-Echo", r.URL.RawQuery)
		w.WriteHeader(http.StatusAccepted)
		w.Write(bytes.ToUpper(body))
	})
	rec := &recorder{}
	tap := httpTap{next: inner, rec: rec}
	do := func(h http.Handler) *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", "/trackers/x/rows?a=1", strings.NewReader("payload"))
		req.Header.Set(batchHeader, "42")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}
	plain, tapped := do(inner), do(tap)
	if plain.Code != tapped.Code || !bytes.Equal(plain.Body.Bytes(), tapped.Body.Bytes()) ||
		plain.Header().Get("X-Echo") != tapped.Header().Get("X-Echo") {
		t.Fatalf("tap changed the response: %d %q vs %d %q", plain.Code, plain.Body, tapped.Code, tapped.Body)
	}
	spans := rec.layer("http.rows")
	if len(spans) != 1 || spans[0].ID != 42 || spans[0].Bytes != int64(len("payload")) || spans[0].End < spans[0].Start {
		t.Fatalf("spans = %+v", spans)
	}
}

// TestHTTPTapOnManager drives a tapped and an untapped manager through
// the same requests and requires identical answers.
func TestHTTPTapOnManager(t *testing.T) {
	reqs := []struct{ method, path, body string }{
		{"PUT", "/trackers/g", `{"kind":"matrix","protocol":"p2","sites":2,"epsilon":0.1,"dim":3,"fast":true}`},
		{"POST", "/trackers/g/rows", `{"site":1,"rows":[[1,2,3],[0,1,0],[2,0,1]]}`},
		{"POST", "/trackers/g/rows", `{"site":0,"rows":[[1,1,1]]}`},
		{"POST", "/trackers/g/rows", `{"site":7,"rows":[[1,1,1]]}`},
		{"GET", "/trackers/g/query?gram=1", ""},
	}
	answers := func(h http.Handler) []string {
		var out []string
		for _, r := range reqs {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(r.method, r.path, strings.NewReader(r.body)))
			out = append(out, w.Result().Status+" "+w.Body.String())
		}
		return out
	}
	open := func() *service.Manager {
		m, err := service.Open(service.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		return m
	}
	plain := answers(open().Handler())
	rec := &recorder{}
	tapped := answers(httpTap{next: open().Handler(), rec: rec})
	for i := range plain {
		if plain[i] != tapped[i] {
			t.Errorf("request %d: %q vs %q", i, plain[i], tapped[i])
		}
	}
	if n := len(rec.layer("http.rows")); n != 3 {
		t.Errorf("%d rows spans, want 3", n)
	}
}

type fakeWire struct{ calls int }

func (f *fakeWire) Hello(tracker string, site int) (uint64, uint64, error) {
	return uint64(site), 7, errors.New("hello " + tracker)
}

func (f *fakeWire) RowBlock(tracker string, site int, seq uint64, rows [][]float64) (uint64, uint64, error) {
	f.calls++
	if len(rows) == 0 {
		return 0, 0, errors.New("empty")
	}
	return seq, seq - 1, nil
}

func TestWireTapDelegates(t *testing.T) {
	inner := &fakeWire{}
	rec := &recorder{}
	tap := wireTap{next: inner, rec: rec}
	a, d, err := tap.Hello("tr", 3)
	if a != 3 || d != 7 || err == nil || err.Error() != "hello tr" {
		t.Fatalf("Hello = %d %d %v", a, d, err)
	}
	a, d, err = tap.RowBlock("tr", 1, 5, [][]float64{{1}})
	if a != 5 || d != 4 || err != nil {
		t.Fatalf("RowBlock = %d %d %v", a, d, err)
	}
	if _, _, err := tap.RowBlock("tr", 1, 6, nil); err == nil || err.Error() != "empty" {
		t.Fatalf("RowBlock error = %v", err)
	}
	spans := rec.layer("wire.rowblock")
	if inner.calls != 2 || len(spans) != 2 || spans[0].ID != wireID(1, 5) || spans[1].ID != wireID(1, 6) {
		t.Fatalf("calls %d spans %+v", inner.calls, spans)
	}
}

func TestFSTapDelegatesByteForByte(t *testing.T) {
	dir := t.TempDir()
	rec := &recorder{}
	tap := &fsTap{FS: vfs.OS(), rec: rec}
	data := bytes.Repeat([]byte("0123456789abcdef"), 1000)
	if err := tap.MkdirAll(filepath.Join(dir, "wal"), 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string) {
		f, err := tap.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := f.Write(data); n != len(data) || err != nil {
			t.Fatalf("write %d %v", n, err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	seg, ckpt := filepath.Join(dir, "wal", "wal-1.seg"), filepath.Join(dir, "t.ckpt")
	write(seg)
	write(ckpt)
	if err := tap.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{seg, ckpt} {
		onDisk, err := os.ReadFile(name)
		if err != nil || !bytes.Equal(onDisk, data) {
			t.Fatalf("%s: written bytes differ (%v)", name, err)
		}
		f, err := vfs.Open(tap, name)
		if err != nil {
			t.Fatal(err)
		}
		back, err := io.ReadAll(f)
		f.Close()
		if err != nil || !bytes.Equal(back, data) {
			t.Fatalf("%s: read bytes differ (%v)", name, err)
		}
	}
	n := int64(len(data))
	if tap.walWritten.Load() != n || tap.ckptWritten.Load() != n || tap.read.Load() != 2*n {
		t.Fatalf("counters wal %d ckpt %d read %d", tap.walWritten.Load(), tap.ckptWritten.Load(), tap.read.Load())
	}
	if got := len(rec.layer("vfs.fsync")); got != 3 {
		t.Fatalf("%d fsync spans, want 3", got)
	}
}

func TestItemErrRatio(t *testing.T) {
	q := newExactItems(false)
	q.add([]distmat.WeightedItem{{Elem: 10, Weight: 5}, {Elem: 20, Weight: 5}})
	answer := func(v uint64) *itemAnswer {
		a := &itemAnswer{}
		a.Quantiles = append(a.Quantiles, struct {
			Phi   float64 `json:"phi"`
			Value uint64  `json:"value"`
		}{0.5, v})
		return a
	}
	// φW = 5 lies in the rank interval of 10 ([0, 5]) and of 20 ([5, 10]);
	// 30's interval is [10, 10], five off.
	for v, want := range map[uint64]float64{10: 0, 20: 0, 30: 5 / (tnQEps * 10)} {
		if got := q.errRatio(answer(v)); math.Abs(got-want) > 1e-12 {
			t.Errorf("value %d: err ratio %v, want %v", v, got, want)
		}
	}
	h := newExactItems(true)
	h.add([]distmat.WeightedItem{{Elem: 1, Weight: 90}, {Elem: 2, Weight: 10}})
	a := &itemAnswer{}
	a.HeavyHitters = append(a.HeavyHitters, struct {
		Elem   uint64  `json:"elem"`
		Weight float64 `json:"weight"`
	}{1, 89.5})
	if got, want := h.errRatio(a), 0.5/(tnHHEps*100); math.Abs(got-want) > 1e-12 {
		t.Errorf("heavy-hitters err ratio %v, want %v", got, want)
	}
}

func TestMissedHeavyHitterFails(t *testing.T) {
	h := newExactItems(true)
	// W = 1000: element 1 is far above (φ+ε)·W, element 2 just at it,
	// element 3 below it, and 21 more elements of weight 21 fill W up.
	at := (tnHHPhi + tnHHEps) * 1000
	items := []distmat.WeightedItem{{Elem: 1, Weight: 500}, {Elem: 2, Weight: at}, {Elem: 3, Weight: at - 1}}
	for e := range 21 {
		items = append(items, distmat.WeightedItem{Elem: uint64(10 + e), Weight: 21})
	}
	h.add(items)
	if h.total != 1000 {
		t.Fatalf("W = %v, want 1000", h.total)
	}
	if v, missed := h.missedHeavy(&itemAnswer{}); !missed || v != 1 {
		t.Errorf("empty answer: missed = %d, %v; want element 1 reported missing", v, missed)
	}
	a := &itemAnswer{}
	for _, e := range []uint64{1, 2} {
		a.HeavyHitters = append(a.HeavyHitters, struct {
			Elem   uint64  `json:"elem"`
			Weight float64 `json:"weight"`
		}{e, h.freq[e]})
	}
	if v, missed := h.missedHeavy(a); missed {
		t.Errorf("complete answer: element %d reported missing", v)
	}
	a.HeavyHitters = a.HeavyHitters[:1]
	if v, missed := h.missedHeavy(a); !missed || v != 2 {
		t.Errorf("truncated answer: missed = %d, %v; want element 2", v, missed)
	}
	if _, missed := newExactItems(false).missedHeavy(&itemAnswer{}); missed {
		t.Error("a quantile answer cannot miss a heavy hitter")
	}
}

func TestCovErrRatio(t *testing.T) {
	exact := gramOf([][]float64{{1, 0}, {0, 2}}, 2) // diag(1, 4), ‖A‖²_F = 5
	approx := []float64{1, 0, 0, 3.5}
	got, err := covErrRatio(exact, approx, 2, 0.1)
	if err != nil || math.Abs(got-0.5/(0.1*5)) > 1e-9 {
		t.Fatalf("covErrRatio = %v, %v", got, err)
	}
}

func TestInputsAreSeeded(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.build(7).digest(), w.build(7).digest(), w.build(8).digest()
		if a != b || a == c {
			t.Errorf("%s: digests %s %s (same seed) %s (other seed)", w.name, a, b, c)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].name)
		}
	}
	if len(doc.EndToEnd) != len(gatedEndToEnd) {
		t.Errorf("%d end_to_end metrics, %d gated in code", len(doc.EndToEnd), len(gatedEndToEnd))
	}
	for _, m := range doc.EndToEnd {
		if unit, ok := gatedEndToEnd[m.Name]; !ok || unit != m.Unit {
			t.Errorf("end_to_end %s (%s): code has %q", m.Name, m.Unit, unit)
		}
	}
	e2e := endToEnd(&phase{elapsed: time.Second}, []float64{1}, 0, 0)
	for _, m := range e2e {
		if u, ok := gatedEndToEnd[m.name]; ok && u != m.unit {
			t.Errorf("%s printed in %s, gated in %s", m.name, m.unit, u)
		}
	}
	if len(doc.PerLayer) != len(perLayerUnits) {
		t.Fatalf("%d per_layer metrics, %d in code", len(doc.PerLayer), len(perLayerUnits))
	}
	for i, m := range doc.PerLayer {
		if m.Name != perLayerUnits[i].name || m.Unit != perLayerUnits[i].unit {
			t.Errorf("per_layer %d: %s (%s) vs %s (%s)", i, m.Name, m.Unit, perLayerUnits[i].name, perLayerUnits[i].unit)
		}
	}
}
