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
	mgr, err := service.Open(service.Options{PoolWorkers: 2})
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
	return srv, srv.Client()
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
// once. Non-finite rows are refused the same way.
func TestRowBatchRejectedWhole(t *testing.T) {
	srv, client := newValidationServer(t)
	url := srv.URL + "/trackers/gram/rows"
	code, doc := httpDo(t, client, http.MethodPost, url,
		map[string]any{"site": 0, "rows": [][]float64{{1, 2, 3}, {4, 5, 6}}})
	mustStatus(t, code, http.StatusOK, doc)

	for _, body := range []string{
		`{"site":0,"rows":[[1,2,3],[4,5,6],[7,8]]}`,
		`{"rows":[[1,2,3],[4,5,6],[7,8]]}`,
		`{"site":1,"rows":[[1,2,3],[1e200,0,0],[7,8,9]]}`,
	} {
		if code := rawPost(t, client, url, body); code != http.StatusBadRequest {
			t.Fatalf("body %s: status %d, want 400", body, code)
		}
		code, doc := httpDo(t, client, http.MethodGet, srv.URL+"/trackers/gram", nil)
		mustStatus(t, code, http.StatusOK, doc)
		if got := doc["count"].(float64); got != 2 {
			t.Fatalf("body %s: count %v after a rejected batch, want 2", body, got)
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
