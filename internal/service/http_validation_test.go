package service_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/service"
)

// rawPost sends a hand-built body (invalid JSON, trailing garbage) the
// JSON helper could never produce.
func rawPost(t *testing.T, client *http.Client, url, body string) int {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func newValidationServer(t *testing.T) (*httptest.Server, *http.Client) {
	t.Helper()
	srv, client, _ := newValidationServerWith(t, service.Options{PoolWorkers: 2})
	return srv, client
}

func newValidationServerWith(t *testing.T, opts service.Options) (*httptest.Server, *http.Client, *service.Manager) {
	t.Helper()
	mgr, err := service.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	srv := httptest.NewServer(mgr.Handler())
	t.Cleanup(srv.Close)
	for name, spec := range map[string]service.Spec{
		"hot":  {Kind: service.KindHH, Sites: 2, Epsilon: 0.05},
		"lat":  {Kind: service.KindQuantile, Sites: 2, Epsilon: 0.1, Bits: 10},
		"gram": {Kind: service.KindMatrix, Sites: 2, Epsilon: 0.1, Dim: 3},
	} {
		code, doc := httpDo(t, srv.Client(), http.MethodPut, srv.URL+"/trackers/"+name, spec)
		mustStatus(t, code, http.StatusCreated, doc)
	}
	return srv, srv.Client(), mgr
}

// walAppends returns the WAL's append count, or 0 without a WAL.
func walAppends(mgr *service.Manager) int64 {
	if d := mgr.Metrics().Durability; d != nil {
		return d.WAL.Appends
	}
	return 0
}

// TestIngestBodyTooLarge413 pins the oversized-body status: a batch over
// the ingest cap is 413 ("split the batch"), not 400 ("fix the JSON").
func TestIngestBodyTooLarge413(t *testing.T) {
	defer service.SetMaxBodyBytes(1024)()
	srv, client := newValidationServer(t)

	items := make([]map[string]any, 200)
	for i := range items {
		items[i] = map[string]any{"elem": i, "weight": 1.5}
	}
	code, doc := httpDo(t, client, http.MethodPost, srv.URL+"/trackers/hot/items",
		map[string]any{"site": 0, "items": items})
	mustStatus(t, code, http.StatusRequestEntityTooLarge, doc)

	// Under the cap the same shape still lands.
	code, doc = httpDo(t, client, http.MethodPost, srv.URL+"/trackers/hot/items",
		map[string]any{"site": 0, "items": items[:4]})
	mustStatus(t, code, http.StatusOK, doc)

	// The rows endpoint draws the same line.
	rows := make([][]float64, 100)
	for i := range rows {
		rows[i] = []float64{1.25, -2.5, float64(i)}
	}
	code, doc = httpDo(t, client, http.MethodPost, srv.URL+"/trackers/gram/rows",
		map[string]any{"site": 0, "rows": rows})
	mustStatus(t, code, http.StatusRequestEntityTooLarge, doc)
	code, doc = httpDo(t, client, http.MethodPost, srv.URL+"/trackers/gram/rows",
		map[string]any{"site": 0, "rows": rows[:4]})
	mustStatus(t, code, http.StatusOK, doc)
}

// TestRowBatchRejectedWhole pins atomic row batches over HTTP: a ragged
// batch is a 400 that ingests nothing — not even the valid rows before
// the bad one — so a client that fixes and resends it counts each row
// once. Non-finite rows and out-of-range sites are refused the same way,
// and with the WAL on a refused batch is never logged.
func TestRowBatchRejectedWhole(t *testing.T) {
	for _, opts := range []service.Options{
		{PoolWorkers: 2},
		{PoolWorkers: 2, DataDir: t.TempDir(), WAL: true},
	} {
		srv, client, mgr := newValidationServerWith(t, opts)
		url := srv.URL + "/trackers/gram/rows"
		code, doc := httpDo(t, client, http.MethodPost, url,
			map[string]any{"site": 0, "rows": [][]float64{{1, 2, 3}, {4, 5, 6}}})
		mustStatus(t, code, http.StatusOK, doc)
		appends := walAppends(mgr)

		for _, body := range []string{
			`{"site":0,"rows":[[1,2,3],[4,5,6],[7,8]]}`,
			`{"rows":[[1,2,3],[4,5,6],[7,8]]}`,
			`{"site":1,"rows":[[1,2,3],[1e200,0,0],[7,8,9]]}`,
			`{"rows":[[1e200,0,0]]}`,
			`{"site":2,"rows":[[1,2,3]]}`,
		} {
			if code := rawPost(t, client, url, body); code != http.StatusBadRequest {
				t.Fatalf("WAL %v, body %s: status %d, want 400", opts.WAL, body, code)
			}
			code, doc := httpDo(t, client, http.MethodGet, srv.URL+"/trackers/gram", nil)
			mustStatus(t, code, http.StatusOK, doc)
			if got := doc["count"].(float64); got != 2 {
				t.Fatalf("WAL %v, body %s: count %v after a rejected batch, want 2", opts.WAL, body, got)
			}
			if got := walAppends(mgr); got != appends {
				t.Fatalf("WAL %v, body %s: %d WAL appends after a rejected batch, want %d", opts.WAL, body, got, appends)
			}
		}
	}
}

// TestItemBatchRejectedWhole is TestRowBatchRejectedWhole for item
// batches: a bad weight, an out-of-universe value, or an out-of-range site
// is a 400 that ingests nothing and, with the WAL on, logs nothing.
func TestItemBatchRejectedWhole(t *testing.T) {
	for _, opts := range []service.Options{
		{PoolWorkers: 2},
		{PoolWorkers: 2, DataDir: t.TempDir(), WAL: true},
	} {
		srv, client, mgr := newValidationServerWith(t, opts)
		for _, tracker := range []string{"hot", "lat"} {
			url := srv.URL + "/trackers/" + tracker + "/items"
			code, doc := httpDo(t, client, http.MethodPost, url,
				map[string]any{"site": 0, "items": []map[string]any{{"elem": 1, "weight": 2}}})
			mustStatus(t, code, http.StatusOK, doc)
		}
		appends := walAppends(mgr)
		for _, c := range []struct{ tracker, body string }{
			{"hot", `{"site":0,"items":[{"elem":1,"weight":1},{"elem":2,"weight":-1}]}`},
			{"hot", `{"items":[{"elem":1,"weight":0}]}`},
			{"hot", `{"site":2,"items":[{"elem":1,"weight":1}]}`},
			{"lat", `{"site":1,"items":[{"elem":1,"weight":1},{"elem":4096,"weight":1}]}`},
			{"lat", `{"items":[{"elem":1,"weight":-1}]}`},
		} {
			if code := rawPost(t, client, srv.URL+"/trackers/"+c.tracker+"/items", c.body); code != http.StatusBadRequest {
				t.Fatalf("WAL %v, %s body %s: status %d, want 400", opts.WAL, c.tracker, c.body, code)
			}
			code, doc := httpDo(t, client, http.MethodGet, srv.URL+"/trackers/"+c.tracker, nil)
			mustStatus(t, code, http.StatusOK, doc)
			if got := doc["count"].(float64); got != 1 {
				t.Fatalf("WAL %v, %s body %s: count %v after a rejected batch, want 1", opts.WAL, c.tracker, c.body, got)
			}
			if got := walAppends(mgr); got != appends {
				t.Fatalf("WAL %v, %s body %s: %d WAL appends after a rejected batch, want %d", opts.WAL, c.tracker, c.body, got, appends)
			}
		}
	}
}

// TestDecodeRejectsTrailingGarbage pins strict body decoding: exactly
// one JSON document per request.
func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	srv, client := newValidationServer(t)
	cases := []string{
		`{"site":0,"items":[{"elem":1}]}{"site":0,"items":[{"elem":2}]}`,
		`{"site":0,"items":[{"elem":1}]} trailing`,
		`{"site":0,"items":[{"elem":1}]}]`,
	}
	for _, body := range cases {
		if code := rawPost(t, client, srv.URL+"/trackers/hot/items", body); code != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, code)
		}
	}
	// A whitespace tail is not garbage.
	ok := "{\"site\":0,\"items\":[{\"elem\":1}]}\n  \n"
	if code := rawPost(t, client, srv.URL+"/trackers/hot/items", ok); code != http.StatusOK {
		t.Fatalf("whitespace tail: status %d, want 200", code)
	}
}

// TestQueryPhiValidation pins the φ parameter contract: NaN, ±Inf, and
// anything outside the open interval (0, 1) is a 400 at the HTTP layer.
func TestQueryPhiValidation(t *testing.T) {
	srv, client := newValidationServer(t)
	bad := []string{"NaN", "nan", "Inf", "-Inf", "0", "1", "1.5", "-0.2", "abc", "0x1p-3x"}
	for _, tracker := range []string{"hot", "lat"} {
		for _, phi := range bad {
			code, doc := httpDo(t, client, http.MethodGet,
				srv.URL+fmt.Sprintf("/trackers/%s/query?phi=%s", tracker, phi), nil)
			mustStatus(t, code, http.StatusBadRequest, doc)
		}
	}
	// One bad φ poisons a multi-φ quantile query.
	code, doc := httpDo(t, client, http.MethodGet, srv.URL+"/trackers/lat/query?phi=0.5&phi=2", nil)
	mustStatus(t, code, http.StatusBadRequest, doc)

	// Valid φs still answer.
	code, doc = httpDo(t, client, http.MethodGet, srv.URL+"/trackers/hot/query?phi=0.1", nil)
	mustStatus(t, code, http.StatusOK, doc)
	code, doc = httpDo(t, client, http.MethodGet, srv.URL+"/trackers/lat/query?phi=0.25&phi=0.75", nil)
	mustStatus(t, code, http.StatusOK, doc)
	if got := len(doc["quantiles"].([]any)); got != 2 {
		t.Fatalf("multi-φ query returned %d values, want 2", got)
	}
}
