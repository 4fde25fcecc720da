package main

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/vfs"
)

// httpRig is what the HTTP workloads share: a manager served on a
// loopback socket, one ingest client and one query client, and the
// closed-loop ingest and open-loop query drivers.
type httpRig struct {
	m       *service.Manager
	srv     *server
	ingest  *client
	queries *client
	fs      *fsTap

	// batch returns the request for batch i; query fills in an open-loop
	// query's answer.
	batch func(i int64) (path string, body []byte)
	query func(q *query)

	log   []int64      // acknowledged batch ids, in ack order, since setup
	acked atomic.Int64 // len(log), for the query goroutine
	next  int64
}

// openHTTPRig opens a manager with opts and serves it; a non-nil
// recorder installs the vfs and HTTP taps.
func openHTTPRig(opts service.Options, rec *recorder) (*httpRig, error) {
	r := &httpRig{}
	if rec != nil {
		r.fs = &fsTap{FS: vfs.OS(), rec: rec}
		opts.FS = r.fs
	}
	m, err := service.Open(opts)
	if err != nil {
		return nil, err
	}
	r.m = m
	var h http.Handler = m.Handler()
	if rec != nil {
		h = httpTap{next: h, rec: rec}
	}
	if r.srv, err = serve(h); err != nil {
		m.Close()
		return nil, err
	}
	r.ingest, r.queries = newClient(r.srv.base), newClient(r.srv.base)
	return r, nil
}

// warmUp acknowledges n batches and answers one query.
func (r *httpRig) warmUp(n int) error {
	for range n {
		if err := r.post(); err != nil {
			return fmt.Errorf("warm-up batch: %w", err)
		}
	}
	q := &query{id: -1}
	r.query(q)
	if q.err != nil || q.status != http.StatusOK {
		return fmt.Errorf("warm-up query: status %d: %v", q.status, q.err)
	}
	return nil
}

// post sends the next batch and returns nil once it is acknowledged.
func (r *httpRig) post() error {
	i := r.next
	r.next++
	path, body := r.batch(i)
	status, resp, err := r.ingest.do("POST", path, i, body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, resp)
	}
	r.log = append(r.log, i)
	r.acked.Store(int64(len(r.log)))
	return nil
}

// walCounts is setup's deterministic work on a WAL manager.
func (r *httpRig) walCounts() string {
	ms := r.m.Metrics()
	msgs, count := protocolMessages(ms)
	return joinCounts("count", count, "messages", msgs, "wal.appends", ms.Durability.WAL.Appends)
}

// checkAppends requires one WAL append per batch the phase acknowledged:
// a count that repeats exactly from run to run.
func checkAppends(p *phase, c *errCheck) {
	if got := p.deltas().walAppends; got != int64(len(p.acks)) {
		c.failf("%d WAL appends for %d acknowledged batches", got, len(p.acks))
	}
}

// drive runs the timed phase: batches of perBatch updates in a closed
// loop until d has passed, and queries at qps in an open loop beside
// them. messages_per_update is read once msgsAt updates are in.
func (r *httpRig) drive(d time.Duration, traced bool, perBatch, msgsAt int64, qps float64) (*phase, error) {
	p := beginPhase(r.m, r.fs, traced)
	sent0 := r.ingest.sent.Load()
	stop, qdone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(qdone)
		p.queries = openLoop(qps, stop, func() int { return int(r.acked.Load()) }, r.query)
	}()
	deadline := p.start.Add(d)
	for time.Now().Before(deadline) {
		i := r.next
		start := time.Now()
		err := r.post()
		end := time.Now()
		p.attempted++
		if err != nil {
			p.failed++
			continue
		}
		p.acks = append(p.acks, newSpan("client", i, start, end, 0))
		p.ack(perBatch)
		if p.msgsUpdates == 0 && int64(len(r.log))*perBatch >= msgsAt {
			msgs, count := protocolMessages(r.m.Metrics())
			p.msgsPerUpdate, p.msgsUpdates = float64(msgs)/float64(count), count
		}
	}
	close(stop)
	<-qdone
	p.netBytes = r.ingest.sent.Load() - sent0
	retained := 0
	for _, q := range p.queries {
		p.attempted++
		if q.err != nil || q.status != http.StatusOK {
			p.failed++
		}
		retained += cap(q.body)
	}
	p.finish(retained)
	if p.msgsUpdates == 0 {
		return nil, fmt.Errorf("run too short: messages_per_update is read after %d updates, the run acknowledged %d", msgsAt, int64(len(r.log))*perBatch)
	}
	return p, nil
}

// queryID keeps query span ids apart from batch ids.
func queryID(i int64) int64 { return 1<<40 + i }

func (r *httpRig) close() error {
	r.ingest.close()
	r.queries.close()
	err := r.srv.close()
	if cerr := r.m.Close(); cerr != nil {
		err = cerr
	}
	return err
}
