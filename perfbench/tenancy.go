package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"time"

	distmat "repro"
	"repro/internal/service"
)

// tenancy-items: 64 durable item trackers (even index heavy-hitters p2,
// odd index quantile) under a resident cap of 8. One client POSTs
// 64-item batches to trackers drawn from a Zipf law; a second client
// queries Zipf-drawn trackers on a fixed schedule. Trackers outside the
// resident set fault in from checkpoint plus WAL replay.
const (
	tnTrackers = 64
	tnResident = 8
	tnSites    = 4
	tnBatch    = 64
	tnSeq      = 8192 // distinct batches; the stream cycles through them
	tnWarmup   = 128  // batches acknowledged during setup
	tnQPS      = 40
	tnZipf     = 1.1 // skew of the tracker popularity law

	tnHHEps   = 0.01
	tnHHPhi   = 0.02
	tnQEps    = 0.05
	tnQBits   = 16
	tnMaxWt   = 100
	tnHHSkew  = 1.3
	tnHHUniv  = 1 << 20
	tnQueries = 4096 // pre-drawn query targets; the schedule cycles through them
	// tnSegment is the WAL segment rotation threshold. A fault-in reads
	// the whole active segment, so with the default 16 MiB the cost of a
	// fault grows through any run of reasonable length; segments this
	// small rotate every second or so and the cost settles.
	tnSegment = 256 << 10
	// tnMsgsAt is the stream prefix messages_per_update is read at.
	tnMsgsAt = 2000 * tnBatch
)

var tnQPhis = []float64{0.1, 0.5, 0.9}

func tnName(k int) string { return fmt.Sprintf("t%02d", k) }

func tnIsHH(k int) bool { return k%2 == 0 }

func tnSpec(k int) service.Spec {
	if tnIsHH(k) {
		return service.Spec{Kind: service.KindHH, Protocol: "p2", Sites: tnSites, Epsilon: tnHHEps}
	}
	return service.Spec{Kind: service.KindQuantile, Sites: tnSites, Epsilon: tnQEps, Bits: tnQBits}
}

func tnSession(k int) (*distmat.Session, error) {
	if tnIsHH(k) {
		return distmat.NewHHSession("p2", distmat.WithSites(tnSites), distmat.WithEpsilon(tnHHEps))
	}
	return distmat.NewQuantileSession(distmat.WithSites(tnSites), distmat.WithEpsilon(tnQEps), distmat.WithBits(tnQBits))
}

type itemBatch struct {
	tracker, site int
	items         []distmat.WeightedItem
	body          []byte
}

type tenancyItems struct {
	batches []itemBatch
	targets []int // query targets
	sum     string
}

func newTenancyItems(seed int64) workload {
	rng := rand.New(rand.NewSource(seed))
	pick := rand.NewZipf(rng, tnZipf, 1, tnTrackers-1)
	elems := rand.NewZipf(rng, tnHHSkew, 1, tnHHUniv-1)
	w := &tenancyItems{}
	dg := newDigester()
	var perTracker [tnTrackers]int
	type itemJSON struct {
		Elem   *uint64 `json:"elem,omitempty"`
		Value  *uint64 `json:"value,omitempty"`
		Weight float64 `json:"weight"`
	}
	for range tnSeq {
		k := int(pick.Uint64())
		b := itemBatch{tracker: k, site: perTracker[k] % tnSites}
		perTracker[k]++
		js := make([]itemJSON, tnBatch)
		for j := range js {
			var v uint64
			if tnIsHH(k) {
				v = elems.Uint64()
			} else {
				// A tracker-specific bell over the 16-bit universe.
				mid := 8192 + 768*float64(k)
				v = uint64(math.Min(math.Max(mid+rng.NormFloat64()*6000, 0), 1<<tnQBits-1))
			}
			wt := 1 + float64(rng.Intn(tnMaxWt))
			b.items = append(b.items, distmat.WeightedItem{Elem: v, Weight: wt})
			vv := v
			if tnIsHH(k) {
				js[j] = itemJSON{Elem: &vv, Weight: wt}
			} else {
				js[j] = itemJSON{Value: &vv, Weight: wt}
			}
		}
		body, err := json.Marshal(struct {
			Site  int        `json:"site"`
			Items []itemJSON `json:"items"`
		}{b.site, js})
		if err != nil {
			panic(err) // finite values always encode
		}
		b.body = body
		dg.bytes(body)
		w.batches = append(w.batches, b)
	}
	qpick := rand.NewZipf(rand.New(rand.NewSource(seed+1)), tnZipf, 1, tnTrackers-1)
	for range tnQueries {
		k := int(qpick.Uint64())
		w.targets = append(w.targets, k)
		dg.bytes([]byte{byte(k)})
	}
	w.sum = dg.sum()
	return w
}

func (w *tenancyItems) digest() string { return w.sum }

type tenancyInst struct {
	*httpRig
	w *tenancyItems
}

func tnOptions(dir string) service.Options {
	return service.Options{DataDir: dir, WAL: true, WALSegmentBytes: tnSegment, MaxResident: tnResident}
}

func (w *tenancyItems) setup(dir string, rec *recorder) (instance, error) {
	r, err := openHTTPRig(tnOptions(dir), rec)
	if err != nil {
		return nil, err
	}
	x := &tenancyInst{httpRig: r, w: w}
	r.batch = func(i int64) (string, []byte) {
		b := &w.batches[i%tnSeq]
		return "/trackers/" + tnName(b.tracker) + "/items", b.body
	}
	r.query = func(q *query) {
		// The warm-up query has id -1.
		q.target = w.targets[int(q.id+1)%tnQueries]
		path := "/trackers/" + tnName(q.target) + "/query"
		if tnIsHH(q.target) {
			path += fmt.Sprintf("?phi=%g", tnHHPhi)
		} else {
			path += fmt.Sprintf("?phi=%g&phi=%g&phi=%g", tnQPhis[0], tnQPhis[1], tnQPhis[2])
		}
		q.status, q.body, q.err = r.queries.do("GET", path, queryID(q.id), nil)
	}
	for k := range tnTrackers {
		spec, err := json.Marshal(tnSpec(k))
		if err == nil {
			err = r.ingest.mustDo("PUT", "/trackers/"+tnName(k), spec, http.StatusCreated)
		}
		if err != nil {
			r.close()
			return nil, err
		}
	}
	if err := r.warmUp(tnWarmup); err != nil {
		r.close()
		return nil, err
	}
	return x, nil
}

func (x *tenancyInst) counts() string { return x.walCounts() }

func (x *tenancyInst) run(d time.Duration, rec *recorder) (*phase, error) {
	return x.drive(d, rec != nil, tnBatch, tnMsgsAt, tnQPS)
}

// itemAnswer is the heavy-hitters or quantile query answer.
type itemAnswer struct {
	Count        int64 `json:"count"`
	HeavyHitters []struct {
		Elem   uint64  `json:"elem"`
		Weight float64 `json:"weight"`
	} `json:"heavy_hitters"`
	Quantiles []struct {
		Phi   float64 `json:"phi"`
		Value uint64  `json:"value"`
	} `json:"quantiles"`
}

// exactItems is a tracker's exact stream state, advanced batch by batch.
type exactItems struct {
	total  float64
	count  int64
	freq   map[uint64]float64 // heavy-hitters
	values []float64          // quantile: weight per value
}

func newExactItems(hh bool) *exactItems {
	if hh {
		return &exactItems{freq: map[uint64]float64{}}
	}
	return &exactItems{values: make([]float64, 1<<tnQBits)}
}

func (e *exactItems) add(items []distmat.WeightedItem) {
	for _, it := range items {
		e.total += it.Weight
		if e.freq != nil {
			e.freq[it.Elem] += it.Weight
		} else {
			e.values[it.Elem] += it.Weight
		}
	}
	e.count += int64(len(items))
}

// errRatio returns the answer's worst error as a share of the εW bound:
// |estimate − frequency| for every reported heavy hitter, and for every
// quantile the distance from φW to the rank interval [W(<v), W(≤v)] of
// the reported value v.
func (e *exactItems) errRatio(a *itemAnswer) float64 {
	worst := 0.0
	if e.freq != nil {
		for _, h := range a.HeavyHitters {
			worst = max(worst, math.Abs(h.Weight-e.freq[h.Elem])/(tnHHEps*e.total))
		}
		return worst
	}
	for _, q := range a.Quantiles {
		var below float64
		for _, w := range e.values[:min(q.Value, uint64(len(e.values)))] {
			below += w
		}
		atOrBelow := below
		if q.Value < uint64(len(e.values)) {
			atOrBelow += e.values[q.Value]
		}
		target := q.Phi * e.total
		worst = max(worst, max(0, below-target, target-atOrBelow)/(tnQEps*e.total))
	}
	return worst
}

// missedHeavy returns an element whose exact frequency is at least
// (φ+ε)·W but which the answer does not report, the guarantee the
// heavy-hitters protocol gives. Quantile answers never miss one.
func (e *exactItems) missedHeavy(a *itemAnswer) (elem uint64, missed bool) {
	if e.freq == nil {
		return 0, false
	}
	reported := make(map[uint64]bool, len(a.HeavyHitters))
	for _, h := range a.HeavyHitters {
		reported[h.Elem] = true
	}
	for v, f := range e.freq {
		if f >= (tnHHPhi+tnHHEps)*e.total && !reported[v] && (!missed || v < elem) {
			elem, missed = v, true
		}
	}
	return elem, missed
}

func (x *tenancyInst) check(p *phase) (float64, int, error) {
	var c errCheck
	checkAppends(p, &c)
	// Per tracker: the acknowledged batches in order, and every answer
	// about it. One client acknowledges batches in order, so an answer
	// covering c items covers the tracker's first batches summing to c.
	batches := make([][]int64, tnTrackers)
	for _, i := range x.log {
		k := x.w.batches[i%tnSeq].tracker
		batches[k] = append(batches[k], i)
	}
	answers := make([][]*itemAnswer, tnTrackers)
	for _, q := range p.queries {
		if q.err != nil || q.status != http.StatusOK {
			continue
		}
		a := &itemAnswer{}
		if err := json.Unmarshal(q.body, a); err != nil {
			c.failf("query %d: %v", q.id, err)
			continue
		}
		answers[q.target] = append(answers[q.target], a)
	}
	for k := range tnTrackers {
		t, err := x.m.Get(tnName(k))
		if err != nil {
			return 0, 0, err
		}
		want := int64(len(batches[k])) * tnBatch
		if got := t.Count(); got != want {
			c.failf("%s: count %d, acknowledged %d items", tnName(k), got, want)
		}
		final := &itemAnswer{}
		if tnIsHH(k) {
			hits, snap, err := t.QueryHeavyHitters(tnHHPhi)
			if err != nil {
				return 0, 0, err
			}
			final.Count = snap.Count
			for _, h := range hits {
				final.HeavyHitters = append(final.HeavyHitters, struct {
					Elem   uint64  `json:"elem"`
					Weight float64 `json:"weight"`
				}{h.Elem, h.Weight})
			}
		} else {
			vals, snap, err := t.QueryQuantiles(tnQPhis)
			if err != nil {
				return 0, 0, err
			}
			final.Count = snap.Count
			for j, v := range vals {
				final.Quantiles = append(final.Quantiles, struct {
					Phi   float64 `json:"phi"`
					Value uint64  `json:"value"`
				}{tnQPhis[j], v})
			}
		}
		answers[k] = append(answers[k], final)
	}

	worst, checked := 0.0, 0
	for k := range tnTrackers {
		as := answers[k]
		sort.SliceStable(as, func(i, j int) bool { return as[i].Count < as[j].Count })
		exact := newExactItems(tnIsHH(k))
		applied := 0
		for _, a := range as {
			for applied < len(batches[k]) && exact.count < a.Count {
				exact.add(x.w.batches[batches[k][applied]%tnSeq].items)
				applied++
			}
			if exact.count != a.Count {
				c.failf("%s: answer covers %d items, not a prefix of the acknowledged batches", tnName(k), a.Count)
				continue
			}
			if exact.count == 0 {
				continue
			}
			if v, missed := exact.missedHeavy(a); missed {
				c.failf("%s: heavy hitter %d (frequency %.6g of W=%.6g) missing from the answer at %d items",
					tnName(k), v, exact.freq[v], exact.total, a.Count)
			}
			r := exact.errRatio(a)
			checked++
			worst = max(worst, r)
			if r > 1 {
				c.failf("%s: error %.4g × εW at %d items exceeds the paper's bound", tnName(k), r, a.Count)
			}
		}
	}
	return worst, checked, c.err()
}

func (x *tenancyInst) descend(p *phase, rec *recorder, dir string, until time.Time) (descent, error) {
	first := p.acks[0].ID
	// Service: the same durable, capped manager, fed directly.
	m, err := service.Open(tnOptions(dir))
	if err != nil {
		return descent{}, err
	}
	defer m.Close()
	trackers := make([]*service.Tracker, tnTrackers)
	// Session: one resident session per tracker. There is no core or
	// kernel layer below it on the items path.
	sessions := make([]*distmat.Session, tnTrackers)
	for k := range tnTrackers {
		if trackers[k], err = m.Create(tnName(k), tnSpec(k)); err != nil {
			return descent{}, err
		}
		if sessions[k], err = tnSession(k); err != nil {
			return descent{}, err
		}
		defer sessions[k].Close()
	}
	qi, replayed := 0, 0
	for n, i := range x.log {
		if time.Now().After(until) {
			break
		}
		for ; qi < len(p.queries) && p.queries[qi].after <= n; qi++ {
			q := p.queries[qi]
			err := timed(rec, "service.snapshot", queryID(q.id), true, func() error {
				if tnIsHH(q.target) {
					_, _, err := trackers[q.target].QueryHeavyHitters(tnHHPhi)
					return err
				}
				_, _, err := trackers[q.target].QueryQuantiles(tnQPhis)
				return err
			})
			if err != nil {
				return descent{}, err
			}
		}
		b := &x.w.batches[i%tnSeq]
		err := timed(rec, "service.ingest", i, i >= first, func() error {
			return trackers[b.tracker].IngestItems(context.Background(), b.site, b.items)
		})
		if err == nil {
			err = timed(rec, "session.batch", i, i >= first, func() error {
				return sessions[b.tracker].ProcessItemsAt(b.site, b.items)
			})
		}
		if err != nil {
			return descent{}, err
		}
		replayed++
	}
	return descent{replayed: replayed, batches: len(x.log)}, nil
}
