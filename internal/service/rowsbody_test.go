package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
)

// rowsRequest is the POST rows body as encoding/json sees it. Decoding it
// with decodeBody is the reference decodeRowsBody must match exactly.
type rowsRequest struct {
	Site *int        `json:"site"`
	Rows [][]float64 `json:"rows"`
}

func referenceRows(w http.ResponseWriter, r *http.Request) (*int, [][]float64, error) {
	var req rowsRequest
	err := decodeBody(w, r, &req)
	return req.Site, req.Rows, err
}

type rowsDecoder func(http.ResponseWriter, *http.Request) (*int, [][]float64, error)

func decodeWith(dec rowsDecoder, body []byte) (*int, [][]float64, error) {
	r := httptest.NewRequest(http.MethodPost, "/trackers/m/rows", bytes.NewReader(body))
	return dec(httptest.NewRecorder(), r)
}

// statusClass is the HTTP status writeErr gives a decode error.
func statusClass(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, errTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, errBadRequest):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// checkAgainstReference decodes body under the byte cap limit with both
// decoders: they must agree on the status and, when they accept, on the
// site and every row bit for bit — nil-ness included.
func checkAgainstReference(t *testing.T, body []byte, limit int64) {
	t.Helper()
	old := maxBodyBytes
	maxBodyBytes = limit
	defer func() { maxBodyBytes = old }()

	wantSite, wantRows, wantErr := decodeWith(referenceRows, body)
	gotSite, gotRows, gotErr := decodeWith(decodeRowsBody, body)
	if w, g := statusClass(wantErr), statusClass(gotErr); w != g {
		t.Fatalf("cap %d, body %.200q: status %d (%v), reference %d (%v)", limit, body, g, gotErr, w, wantErr)
	}
	if wantErr != nil {
		return
	}
	if (wantSite == nil) != (gotSite == nil) || wantSite != nil && *wantSite != *gotSite {
		t.Fatalf("cap %d, body %.200q: site %v, reference %v", limit, body, fmtSite(gotSite), fmtSite(wantSite))
	}
	if (wantRows == nil) != (gotRows == nil) || len(wantRows) != len(gotRows) {
		t.Fatalf("cap %d, body %.200q: rows %v, reference %v", limit, body, gotRows, wantRows)
	}
	for i := range wantRows {
		w, g := wantRows[i], gotRows[i]
		if (w == nil) != (g == nil) || len(w) != len(g) {
			t.Fatalf("cap %d, body %.200q: row %d = %v, reference %v", limit, body, i, g, w)
		}
		for j := range w {
			if math.Float64bits(w[j]) != math.Float64bits(g[j]) {
				t.Fatalf("cap %d, body %.200q: row %d[%d] = %v, reference %v", limit, body, i, j, g[j], w[j])
			}
		}
	}
}

func fmtSite(p *int) any {
	if p == nil {
		return nil
	}
	return *p
}

// perfbenchBody is a POST rows body shaped like the http-rows benchmark's:
// PAMAP-like rows at d=44, encoded by encoding/json.
func perfbenchBody(t testing.TB, rows int, seed int64) []byte {
	t.Helper()
	cfg := gen.PAMAPLike(rows)
	cfg.Seed = seed
	body, err := json.Marshal(struct {
		Site int         `json:"site"`
		Rows [][]float64 `json:"rows"`
	}{3, gen.LowRankMatrix(cfg)})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// rowsBodyEdgeCases are the bodies where a hand-written decoder most
// easily parts ways with encoding/json.
var rowsBodyEdgeCases = []string{
	// whitespace everywhere JSON allows it
	" \t\n{ \"site\" : 1 ,\r\n \"rows\" : [ [ 1 , 2 ] , [ 3 ,4 ] ] } \n",
	"{\"rows\":[[1]]}\n  \n",
	// keys match case-insensitively (Unicode simple folding), escapes resolved
	`{"ROWS":[[1,2]],"SITE":2}`,
	`{"Site":1,"rOwS":[[1]]}`,
	`{"rows":[[1]],"Site":0}`,
	`{"ſite":1,"rowſ":[[1]]}`,
	`{"ſite":1,"rows":[[1]]}`,
	`{"ro\ud800ws":[[1]]}`,
	`{"\ud800rows":[[1]]}`,
	`{"rows\u0000":[[1]]}`,
	`{"ro\/ws":[[1]]}`,
	`{"r\"ows":[[1]]}`,
	// invalid UTF-8 in keys
	"{\"r\xffws\":[[1]]}",
	"{\"rows\xc0\":[[1]]}",
	"{\"\xef\xbf\xbdrows\":[[1]]}",
	// duplicate keys: the last wins, decoded into the earlier value
	`{"rows":[[1,2]],"rows":[[3]]}`,
	`{"site":1,"site":2,"rows":[[1]]}`,
	`{"site":1,"site":null,"rows":[[1]]}`,
	`{"rows":[[1,2,3]],"rows":[[4,null,null,null]]}`,
	`{"rows":[[1,2,3],[4,5]],"rows":[[6]],"rows":[[null,7],[null,null,null]]}`,
	`{"rows":[[1,2]],"rows":[],"rows":[[null]]}`,
	`{"rows":[[1,2]],"rows":null,"rows":[[null]]}`,
	`{"rows":[[1,2]],"rows":[null],"rows":[[null,null]]}`,
	`{"rows":[[]],"rows":[[null]]}`,
	`{"rows":[null,[1]],"rows":[[null],[null,null]]}`,
	`{"rows":[[1],[2],[3]],"rows":[[4]],"rows":[[5],[null],[null]]}`,
	`{"rows":[[1,2,3],[4,5,6]],"rows":[[7]],"rows":[[null,null,null],[null,null,null,null]]}`,
	`{"rows":[[1,2],[3,4]],"rows":[[],[null]],"rows":[[null,null],[null,null]]}`,
	`{"rows":[[1,2,3,4,5]],"rows":[[6,7,8,9,10,11]],"rows":[[12]],"rows":[[null,null,null,null,null,null,null]]}`,
	// null for site, rows, a single row, an element
	`{"site":null,"rows":[[1]]}`,
	`{"rows":null}`,
	`{"rows":[null,[1]]}`,
	`{"rows":[[1,null]]}`,
	`null`,
	`null `,
	`null x`,
	// empty arrays and objects
	`[]`,
	`{}`,
	`{"rows":[]}`,
	`{"rows":[[]]}`,
	`{"rows":[[],[1]]}`,
	// numbers: exponents, range, signed zero, leading zeros
	`{"rows":[[1e5,-2.5E-3,3e+2,0.5e0,1E-0]]}`,
	`{"rows":[[1e400]]}`,
	`{"rows":[[-1e400]]}`,
	`{"rows":[[1e-400,4.9e-324,1.7976931348623157e308]]}`,
	`{"site":-0,"rows":[[-0,-0.0,0e0]]}`,
	`{"rows":[[01]]}`,
	`{"site":00,"rows":[[1]]}`,
	`{"rows":[[1.]]}`,
	`{"rows":[[.5]]}`,
	`{"rows":[[+1]]}`,
	`{"rows":[[1e]]}`,
	`{"rows":[[-]]}`,
	`{"rows":[[0x10]]}`,
	`{"rows":[[NaN]]}`,
	`{"rows":[[Infinity]]}`,
	// site must be an int literal in int range
	`{"site":1.0,"rows":[[1]]}`,
	`{"site":1e0,"rows":[[1]]}`,
	`{"site":"1","rows":[[1]]}`,
	`{"site":true,"rows":[[1]]}`,
	`{"site":[1],"rows":[[1]]}`,
	`{"site":9223372036854775807,"rows":[[1]]}`,
	`{"site":9223372036854775808,"rows":[[1]]}`,
	`{"site":-5,"rows":[[1]]}`,
	// wrong shapes and unknown fields
	`{"rows":[["1"]]}`,
	`{"rows":[[true]]}`,
	`{"rows":[[[1]]]}`,
	`{"rows":[[{}]]}`,
	`{"rows":[1]}`,
	`{"rows":{}}`,
	`{"rows":"x"}`,
	`{"rows":[[1]],"extra":1}`,
	`{"extra":{"a":[1,{"b":null}]},"rows":[[1]]}`,
	`1`,
	`123`,
	`"x"`,
	`"x" `,
	`true`,
	`true `,
	`[1] `,
	// syntax errors
	`{"rows":[[1,]]}`,
	`{"rows":[[1],]}`,
	`{"rows":[[1]],}`,
	`{,"rows":[[1]]}`,
	`{"rows"[[1]]}`,
	`{"rows":[[1]]]`,
	`{"rows":[[1]}`,
	`{"rows":[[nul]]}`,
	`{"rows":[[nulll]]}`,
	`{'rows':[[1]]}`,
	"{\"ro\tws\":[[1]]}",
	`{"ro\qws":[[1]]}`,
	`{"ro\u00zzws":[[1]]}`,
	// trailing data
	`{"rows":[[1]]}x`,
	`{"rows":[[1]]}{}`,
	`{"rows":[[1]]} {"rows":[[2]]}`,
	`{"rows":[[1]]}]`,
	`{"rows":[[1]]} 1`,
	`{"rows":[[1]]} 12`,
	`{"rows":[[1]]} true `,
	`{"rows":[[1]]} "x`,
	// truncated bodies
	`{"rows":[[1,2`,
	`{"rows":[[1`,
	`{"rows":[[1.5e`,
	`{"ro`,
	`{"rows":[["ab\`,
	`{"rows":[[n`,
	`{`,
	``,
	`   `,
}

// TestRowsBodyMatchesReference runs every edge case against the
// encoding/json reference at every byte cap from 0 to past its length, so
// each 400/413 boundary the cap can fall on is compared.
func TestRowsBodyMatchesReference(t *testing.T) {
	cases := append([]string{}, rowsBodyEdgeCases...)
	// An object plus maxDepth-1 arrays sits at encoding/json's nesting
	// limit; one array more is a syntax error.
	for _, n := range []int{maxDepth - 1, maxDepth} {
		cases = append(cases, `{"x":`+strings.Repeat("[", n)+strings.Repeat("]", n)+`,"rows":[[1]]}`)
	}
	for _, body := range cases {
		for c := 0; c <= len(body)+1; c++ {
			if len(body) > 1000 && c > 40 && (c < maxDepth-5 || c > maxDepth+10) {
				continue // the nesting cases: cut near the start and the limit
			}
			checkAgainstReference(t, []byte(body), int64(c))
		}
		checkAgainstReference(t, []byte(body), 64<<20)
	}
}

// FuzzRowsBody holds decodeRowsBody to the encoding/json reference on
// arbitrary bodies, uncapped and cut at an arbitrary byte cap.
func FuzzRowsBody(f *testing.F) {
	seeds := append([]string{string(perfbenchBody(f, 4, 1))}, rowsBodyEdgeCases...)
	for _, s := range seeds {
		f.Add([]byte(s), uint16(len(s)/2))
	}
	f.Fuzz(func(t *testing.T, body []byte, limit uint16) {
		checkAgainstReference(t, body, 64<<20)
		checkAgainstReference(t, body, int64(limit)%int64(len(body)+1))
	})
}

// TestRowsDecodeGuard is the perf floor behind the single-pass decoder: a
// 500×44 body (the http-rows batch) decodes at least 1.5× faster than
// the encoding/json reference, and the decoder's allocation count does
// not grow with the row count.
func TestRowsDecodeGuard(t *testing.T) {
	small, large := perfbenchBody(t, 50, 7), perfbenchBody(t, 500, 7)

	// A GC cycle mid-measurement adds runtime allocations of its own.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(body []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, _, err := decodeWith(decodeRowsBody, body); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a50, a500 := allocs(small), allocs(large); a50 != a500 {
		t.Errorf("decode allocates %.0f times for 50 rows but %.0f for 500: allocations grow with the batch", a50, a500)
	} else {
		t.Logf("%.0f allocations per body at 50 and 500 rows", a500)
	}
	debug.SetGCPercent(100)

	if testing.Short() {
		t.Skip("wall-clock guard skipped in -short mode")
	}
	best := func(dec rowsDecoder) time.Duration {
		var bestD time.Duration
		for round := 0; round < 5; round++ {
			start := time.Now()
			for k := 0; k < 8; k++ {
				if _, _, err := decodeWith(dec, large); err != nil {
					t.Fatal(err)
				}
			}
			if d := time.Since(start) / 8; bestD == 0 || d < bestD {
				bestD = d
			}
		}
		return bestD
	}
	ref, got := best(referenceRows), best(decodeRowsBody)
	ratio := float64(ref) / float64(got)
	t.Logf("500×44 body (%d B): encoding/json %v, single pass %v: %.2fx", len(large), ref, got, ratio)
	if ratio < 1.5 {
		t.Errorf("single-pass decode only %.2fx faster than encoding/json, want ≥ 1.5x", ratio)
	}
}
