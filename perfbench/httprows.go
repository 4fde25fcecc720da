package main

import (
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"time"

	distmat "repro"
	"repro/internal/gen"
	"repro/internal/service"
)

// http-rows: one client POSTs 500-row JSON batches of PAMAP-like rows to
// a durable (WAL, leader group commit) matrix p2 fast tracker, sites
// round-robin, while a second client GETs the Gram on a fixed schedule.
const (
	hrSites  = 10
	hrEps    = 0.1
	hrDim    = 44
	hrBatch  = 500
	hrPool   = 80 // distinct batches (a multiple of hrSites); the stream cycles through them
	hrWarmup = 20 // batches acknowledged during setup
	hrQPS    = 25
	// hrMsgsAt is the stream prefix messages_per_update is read at.
	hrMsgsAt = 50000
)

const hrTracker = "gram"

var hrSpec = service.Spec{Kind: service.KindMatrix, Protocol: "p2", Sites: hrSites, Epsilon: hrEps, Dim: hrDim, Fast: true}

func hrOptions() []distmat.Option {
	return []distmat.Option{distmat.WithSites(hrSites), distmat.WithEpsilon(hrEps), distmat.WithDim(hrDim), distmat.WithFastIngest()}
}

type httpRows struct {
	rows   [][][]float64 // pool batch → rows; batch i is pool entry i % hrPool at site i % hrSites
	bodies [][]byte
	grams  [][]float64 // exact AᵀA of each pool batch
	sum    string
}

func newHTTPRows(seed int64) workload {
	cfg := gen.PAMAPLike(hrPool * hrBatch)
	cfg.Seed = seed
	all := gen.LowRankMatrix(cfg)
	w := &httpRows{}
	dg := newDigester()
	for j := range hrPool {
		rows := all[j*hrBatch : (j+1)*hrBatch]
		body, err := json.Marshal(struct {
			Site int         `json:"site"`
			Rows [][]float64 `json:"rows"`
		}{j % hrSites, rows})
		if err != nil {
			panic(err) // finite floats always encode
		}
		w.rows = append(w.rows, rows)
		w.bodies = append(w.bodies, body)
		w.grams = append(w.grams, gramOf(rows, hrDim))
		dg.bytes(body)
	}
	w.sum = dg.sum()
	return w
}

func (w *httpRows) digest() string { return w.sum }

type httpRowsInst struct {
	*httpRig
	w *httpRows
}

func (w *httpRows) setup(dir string, rec *recorder) (instance, error) {
	r, err := openHTTPRig(service.Options{DataDir: dir, WAL: true}, rec)
	if err != nil {
		return nil, err
	}
	x := &httpRowsInst{httpRig: r, w: w}
	r.batch = func(i int64) (string, []byte) { return "/trackers/" + hrTracker + "/rows", w.bodies[i%hrPool] }
	r.query = func(q *query) {
		q.status, q.body, q.err = r.queries.do("GET", "/trackers/"+hrTracker+"/query?gram=1", queryID(q.id), nil)
	}
	spec, err := json.Marshal(hrSpec)
	if err == nil {
		err = r.ingest.mustDo("PUT", "/trackers/"+hrTracker, spec, http.StatusCreated)
	}
	if err == nil {
		err = r.warmUp(hrWarmup)
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return x, nil
}

func (x *httpRowsInst) counts() string { return x.walCounts() }

func (x *httpRowsInst) run(d time.Duration, rec *recorder) (*phase, error) {
	return x.drive(d, rec != nil, hrBatch, hrMsgsAt, hrQPS)
}

// gramAnswer is the GET query?gram=1 answer.
type gramAnswer struct {
	Count int64       `json:"count"`
	Gram  [][]float64 `json:"gram"`
}

func (x *httpRowsInst) check(p *phase) (float64, int, error) {
	var c errCheck
	t, err := x.m.Get(hrTracker)
	if err != nil {
		return 0, 0, err
	}
	want := int64(len(x.log)) * hrBatch
	if got := t.Count(); got != want {
		c.failf("tracker count %d, acknowledged %d rows", got, want)
	}
	checkAppends(p, &c)
	// Every answer, in count order, against the exact Gram of the batches
	// acknowledged before it: one client acknowledges batches in order,
	// so an answer covering c rows covers exactly the first c/500 batches.
	type answer struct {
		count int64
		gram  []float64
	}
	var answers []answer
	for _, q := range p.queries {
		if q.err != nil || q.status != http.StatusOK {
			continue
		}
		var a gramAnswer
		if err := json.Unmarshal(q.body, &a); err != nil {
			c.failf("query %d: %v", q.id, err)
			continue
		}
		g, err := flatGram(a.Gram, hrDim)
		if err != nil {
			c.failf("query %d: %v", q.id, err)
			continue
		}
		answers = append(answers, answer{a.Count, g})
	}
	snap, err := t.Snapshot()
	if err != nil {
		return 0, 0, err
	}
	answers = append(answers, answer{snap.Count, snap.Gram.RawData()})
	sort.SliceStable(answers, func(i, j int) bool { return answers[i].count < answers[j].count })

	exact := make([]float64, hrDim*hrDim)
	applied := 0
	worst := 0.0
	for _, a := range answers {
		if a.count%hrBatch != 0 || a.count > want {
			c.failf("answer covers %d rows: not a whole number of the %d acknowledged batches", a.count, len(x.log))
			continue
		}
		for ; int64(applied)*hrBatch < a.count; applied++ {
			addTo(exact, x.w.grams[x.log[applied]%hrPool])
		}
		r, err := covErrRatio(exact, a.gram, hrDim, hrEps)
		if err != nil {
			c.failf("answer at %d rows: %v", a.count, err)
			continue
		}
		worst = max(worst, r)
	}
	if worst > 1 {
		c.failf("covariance error %.4g × ε‖A‖²_F exceeds the paper's bound", worst)
	}
	return worst, len(answers), c.err()
}

func (x *httpRowsInst) descend(p *phase, rec *recorder, dir string, until time.Time) (descent, error) {
	first := p.acks[0].ID
	// Service: the same durable manager configuration, fed directly.
	m, err := service.Open(service.Options{DataDir: dir, WAL: true})
	if err != nil {
		return descent{}, err
	}
	defer m.Close()
	t, err := m.Create(hrTracker, hrSpec)
	if err != nil {
		return descent{}, err
	}
	layers, err := newMatrixLayers(hrDim, hrOptions())
	if err != nil {
		return descent{}, err
	}
	defer layers.close()
	qi, replayed := 0, 0
	for k, i := range x.log {
		if time.Now().After(until) {
			break
		}
		for ; qi < len(p.queries) && p.queries[qi].after <= k; qi++ {
			err := timed(rec, "service.snapshot", queryID(p.queries[qi].id), true, func() error {
				_, err := t.Snapshot()
				return err
			})
			if err != nil {
				return descent{}, err
			}
		}
		site, rows := int(i%hrSites), x.w.rows[i%hrPool]
		err := timed(rec, "service.ingest", i, i >= first, func() error {
			return t.IngestRows(context.Background(), site, rows)
		})
		if err != nil {
			return descent{}, err
		}
		if err := layers.apply(rec, i, site, rows, i >= first); err != nil {
			return descent{}, err
		}
		replayed++
	}
	d := layers.descent()
	d.replayed, d.batches = replayed, len(x.log)
	return d, nil
}
