package main

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	distmat "repro"
	"repro/internal/gen"
	"repro/internal/service"
	"repro/internal/wire"
)

// wire-rows: two sites stream 1024-row blocks of MSD-like high-rank rows
// over wire.SiteConn into a wire.CoordListener feeding a matrix p2 fast
// tracker with no data directory. Each site waits for a block's ack
// before sending the next.
const (
	wrSites   = 10 // the tracker's sites; sites 0..wrStreams-1 stream
	wrStreams = 2
	wrEps     = 0.1
	wrDim     = 90
	wrBlock   = 1024
	wrPool    = 16 // distinct blocks per site; each site cycles through its own
	wrWarmup  = 4  // blocks per site acknowledged during setup
	// wrMsgsAt is the stream prefix messages_per_update is read at.
	wrMsgsAt = 64 * wrBlock
)

const wrTracker = "stream"

var wrSpec = service.Spec{Kind: service.KindMatrix, Protocol: "p2", Sites: wrSites, Epsilon: wrEps, Dim: wrDim, Fast: true}

func wrOptions() []distmat.Option {
	return []distmat.Option{distmat.WithSites(wrSites), distmat.WithEpsilon(wrEps), distmat.WithDim(wrDim), distmat.WithFastIngest()}
}

type wireRows struct {
	blocks [wrStreams][][][]float64 // site → pool block → rows
	grams  [wrStreams][][]float64   // exact AᵀA of each pool block
	sum    string
}

func newWireRows(seed int64) workload {
	cfg := gen.MSDLike(wrStreams * wrPool * wrBlock)
	cfg.Seed = seed
	all := gen.HighRankMatrix(cfg)
	w := &wireRows{}
	dg := newDigester()
	for s := range wrStreams {
		for j := range wrPool {
			off := (s*wrPool + j) * wrBlock
			rows := all[off : off+wrBlock]
			w.blocks[s] = append(w.blocks[s], rows)
			w.grams[s] = append(w.grams[s], gramOf(rows, wrDim))
			for _, r := range rows {
				dg.floats(r)
			}
		}
	}
	w.sum = dg.sum()
	return w
}

func (w *wireRows) digest() string { return w.sum }

// wireAck is one acknowledged block: its site, its position in the
// site's stream, the sequence number the site assigned it, and when its
// ack arrived.
type wireAck struct {
	site int
	n    int64
	seq  uint64
	end  time.Time
}

type wireRowsInst struct {
	w     *wireRows
	m     *service.Manager
	ln    *wire.CoordListener
	serve chan error
	sites [wrStreams]*wire.SiteConn
	next  [wrStreams]int64
	logs  [wrStreams][]wireAck
}

func (w *wireRows) setup(dir string, rec *recorder) (instance, error) {
	x := &wireRowsInst{w: w, serve: make(chan error, 1)}
	m, err := service.Open(service.Options{})
	if err != nil {
		return nil, err
	}
	x.m = m
	if _, err := m.Create(wrTracker, wrSpec); err != nil {
		m.Close()
		return nil, err
	}
	var h wire.Handler = m.WireBridge()
	if rec != nil {
		h = wireTap{next: h, rec: rec}
	}
	if x.ln, err = wire.NewCoordListener("127.0.0.1:0", h); err != nil {
		m.Close()
		return nil, err
	}
	go func() { x.serve <- x.ln.Serve() }()
	for s := range wrStreams {
		if x.sites[s], err = wire.Dial(wire.SiteConfig{Addr: x.ln.Addr(), Site: s, Tracker: wrTracker}); err != nil {
			x.close()
			return nil, err
		}
	}
	for s := range wrStreams {
		for range wrWarmup {
			if _, err := x.send(s); err != nil {
				x.close()
				return nil, fmt.Errorf("warm-up block: %w", err)
			}
		}
	}
	return x, nil
}

// send streams site s's next block, waits for its ack, and returns the
// time spent blocked in SendBlock.
func (x *wireRowsInst) send(s int) (time.Duration, error) {
	n := x.next[s]
	x.next[s]++
	conn := x.sites[s]
	start := time.Now()
	if err := conn.SendBlock(x.w.blocks[s][n%wrPool]); err != nil {
		return 0, err
	}
	wait := time.Since(start)
	_, _, seq := conn.Watermarks()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := conn.Drain(ctx); err != nil {
		return 0, err
	}
	x.logs[s] = append(x.logs[s], wireAck{site: s, n: n, seq: seq, end: time.Now()})
	return wait, nil
}

// counts reports the frames the sites received. Frames sent are counted
// by the writer after its write returns, so at the instant a block's ack
// arrives the count may trail by one; frames received are counted before
// the ack is acted on.
func (x *wireRowsInst) counts() string {
	msgs, count := protocolMessages(x.m.Metrics())
	var frames int64
	for _, c := range x.sites {
		frames += c.Stats().FramesIn.Load()
	}
	return joinCounts("count", count, "messages", msgs, "wire.frames_in", frames)
}

func (x *wireRowsInst) siteStats() wire.StatsSnapshot {
	var sum wire.StatsSnapshot
	for _, c := range x.sites {
		st := c.Stats().Snapshot()
		sum.FramesOut += st.FramesOut
		sum.BytesOut += st.BytesOut
		sum.FramesIn += st.FramesIn
		sum.BytesIn += st.BytesIn
		sum.Retransmits += st.Retransmits
	}
	return sum
}

func (x *wireRowsInst) run(d time.Duration, rec *recorder) (*phase, error) {
	p := beginPhase(x.m, nil, rec != nil)
	st0 := x.siteStats()
	deadline := p.start.Add(d)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		msgsOnce sync.Once
		errs     []error
	)
	const warmed = wrStreams * wrWarmup * wrBlock
	for s := range wrStreams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var acks []span
			var sendWait, drainWait []float64
			for time.Now().Before(deadline) {
				start := time.Now()
				wait, err := x.send(s)
				if err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
					return
				}
				a := x.logs[s][len(x.logs[s])-1]
				acks = append(acks, newSpan("client", wireID(s, a.seq), start, a.end, 0))
				sendWait = append(sendWait, float64(wait.Nanoseconds())/1e6)
				drainWait = append(drainWait, float64(a.end.Sub(start.Add(wait)).Nanoseconds())/1e6)
				p.ack(wrBlock)
				if u, _ := p.acked(); warmed+u >= wrMsgsAt {
					msgsOnce.Do(func() {
						msgs, count := protocolMessages(x.m.Metrics())
						mu.Lock()
						p.msgsPerUpdate, p.msgsUpdates = float64(msgs)/float64(count), count
						mu.Unlock()
					})
				}
			}
			mu.Lock()
			p.acks = append(p.acks, acks...)
			p.sendWait = append(p.sendWait, sendWait...)
			p.drainWait = append(p.drainWait, drainWait...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	st := x.siteStats()
	p.sites = wire.StatsSnapshot{
		FramesOut:   st.FramesOut - st0.FramesOut,
		BytesOut:    st.BytesOut - st0.BytesOut,
		FramesIn:    st.FramesIn - st0.FramesIn,
		BytesIn:     st.BytesIn - st0.BytesIn,
		Retransmits: st.Retransmits - st0.Retransmits,
	}
	p.netBytes = p.sites.BytesOut
	p.attempted = int64(len(p.acks) + len(errs))
	p.failed = int64(len(errs))
	p.finish(0)
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	if p.msgsUpdates == 0 {
		return nil, fmt.Errorf("run too short: messages_per_update is read after %d updates, the run acknowledged %d", wrMsgsAt, warmed+p.updates)
	}
	return p, nil
}

func (x *wireRowsInst) check(p *phase) (float64, int, error) {
	var c errCheck
	t, err := x.m.Get(wrTracker)
	if err != nil {
		return 0, 0, err
	}
	exact := make([]float64, wrDim*wrDim)
	var want int64
	for s := range wrStreams {
		for _, a := range x.logs[s] {
			addTo(exact, x.w.grams[s][a.n%wrPool])
			want += wrBlock
		}
		st := x.sites[s].Stats().Snapshot()
		if st.Retransmits != 0 {
			c.failf("site %d retransmitted %d blocks on a healthy loopback", s, st.Retransmits)
		}
		if err := x.sites[s].Err(); err != nil {
			c.failf("site %d: %v", s, err)
		}
	}
	// One ack frame in per block, and one row-block frame out give or
	// take the last (see counts): wire.frames_per_update is 2/1024.
	if n := int64(len(p.acks)); p.sites.FramesIn != n || p.sites.FramesOut < n-1 || p.sites.FramesOut > n+1 {
		c.failf("%d frames out and %d in for %d blocks", p.sites.FramesOut, p.sites.FramesIn, n)
	}
	if got := t.Count(); got != want {
		c.failf("tracker count %d, acknowledged %d rows", got, want)
	}
	snap, err := t.Snapshot()
	if err != nil {
		return 0, 0, err
	}
	r, err := covErrRatio(exact, snap.Gram.RawData(), wrDim, wrEps)
	if err != nil {
		c.failf("final answer: %v", err)
	} else if r > 1 {
		c.failf("covariance error %.4g × ε‖A‖²_F exceeds the paper's bound", r)
	}
	return r, 1, c.err()
}

// ackOrder merges the sites' acknowledged blocks in ack order, the order
// the tracker applied them in up to the ties of concurrent acks.
func (x *wireRowsInst) ackOrder() []wireAck {
	var all []wireAck
	for s := range wrStreams {
		all = append(all, x.logs[s]...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].end.Before(all[j].end) })
	return all
}

func (x *wireRowsInst) descend(p *phase, rec *recorder, dir string, until time.Time) (descent, error) {
	recorded := make(map[int64]bool, len(p.acks))
	for _, a := range p.acks {
		recorded[a.ID] = true
	}
	m, err := service.Open(service.Options{})
	if err != nil {
		return descent{}, err
	}
	defer m.Close()
	t, err := m.Create(wrTracker, wrSpec)
	if err != nil {
		return descent{}, err
	}
	layers, err := newMatrixLayers(wrDim, wrOptions())
	if err != nil {
		return descent{}, err
	}
	defer layers.close()
	order, replayed := x.ackOrder(), 0
	for _, a := range order {
		if time.Now().After(until) {
			break
		}
		id, rows := wireID(a.site, a.seq), x.w.blocks[a.site][a.n%wrPool]
		err := timed(rec, "service.ingest", id, recorded[id], func() error {
			return t.IngestRows(context.Background(), a.site, rows)
		})
		if err != nil {
			return descent{}, err
		}
		if err := layers.apply(rec, id, a.site, rows, recorded[id]); err != nil {
			return descent{}, err
		}
		replayed++
	}
	d := layers.descent()
	d.replayed, d.batches = replayed, len(order)
	return d, nil
}

func (x *wireRowsInst) close() error {
	for _, c := range x.sites {
		if c != nil {
			c.Close()
		}
	}
	err := x.ln.Close()
	if serr := <-x.serve; !errors.Is(serr, wire.ErrClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, x.m.Close())
}
