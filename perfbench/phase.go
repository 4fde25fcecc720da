package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/wire"
)

// phase is what one timed run observed.
type phase struct {
	start, end time.Time
	elapsed    time.Duration
	cpu        time.Duration

	updates int64 // rows or items acknowledged in the phase
	// live counts the updates so far and when the latest was
	// acknowledged, for the window meter.
	liveMu  sync.Mutex
	live    int64
	lastAck time.Time
	// windows are the phase's whole one-second windows: updates
	// acknowledged and CPU spent in each.
	windows           []window
	attempted, failed int64 // ingest batches and queries
	acks              []span
	queries           []*query
	netBytes          int64 // bytes the clients wrote to their sockets

	// msgsPerUpdate is the paper's protocol messages per update over the
	// first msgsUpdates updates of the stream, a fixed prefix so the
	// figure does not move with throughput.
	msgsPerUpdate float64
	msgsUpdates   int64

	heapDeltaMB float64
	allocBytes  uint64
	gcCycles    uint32

	before, after service.Metrics

	// Traced runs only.
	fs                     *fsTap
	fsRead0, fsWal0, fsCk0 int64
	goroutinesMax          int
	poolQueueMax           int

	// Wire runs only: the sites' time blocked in SendBlock and waiting
	// for each block's ack, and their frame counters over the phase.
	sendWait, drainWait []float64
	sites               wire.StatsSnapshot

	m        *service.Manager
	stopWin  chan struct{}
	winDone  chan struct{}
	cpu0     time.Duration
	heap0    uint64
	mem0     runtime.MemStats
	stopSamp chan struct{}
	sampWG   sync.WaitGroup
}

// beginPhase snapshots the counters a phase reports deltas of and, on a
// traced run, starts sampling the pool queue and goroutine count.
func beginPhase(m *service.Manager, fs *fsTap, traced bool) *phase {
	p := &phase{m: m, fs: fs}
	runtime.GC()
	runtime.ReadMemStats(&p.mem0)
	p.heap0 = p.mem0.HeapAlloc
	p.before = m.Metrics()
	if fs != nil {
		p.fsRead0, p.fsWal0, p.fsCk0 = fs.read.Load(), fs.walWritten.Load(), fs.ckptWritten.Load()
	}
	if traced {
		p.stopSamp = make(chan struct{})
		p.sampWG.Add(1)
		go p.sample()
	}
	p.stopWin, p.winDone = make(chan struct{}), make(chan struct{})
	p.cpu0 = cpuTime()
	p.start = time.Now()
	go p.meter()
	return p
}

// ack counts updates acknowledged in the phase.
func (p *phase) ack(n int64) {
	p.liveMu.Lock()
	p.live += n
	p.lastAck = time.Now()
	p.liveMu.Unlock()
}

func (p *phase) acked() (int64, time.Time) {
	p.liveMu.Lock()
	defer p.liveMu.Unlock()
	return p.live, p.lastAck
}

// window is one second of the timed phase: the updates acknowledged in
// it, the CPU spent, and the time from the previous window's last ack to
// this window's last ack, which the updates span.
type window struct {
	updates   int64
	cpu, span time.Duration
}

// windowLen is the length of a throughput window. Rates are reported as
// the median over windows, so a few seconds in which the machine runs
// the process slower do not decide a run's figure.
const windowLen = time.Second

func (p *phase) meter() {
	defer close(p.winDone)
	tick := time.NewTicker(windowLen)
	defer tick.Stop()
	lastU, lastC, lastT := int64(0), p.cpu0, p.start
	for {
		select {
		case <-p.stopWin:
			return
		case now := <-tick.C:
			u, t := p.acked()
			c := cpuTime()
			if u == lastU {
				// Nothing acknowledged: a stalled second, rate 0.
				p.windows = append(p.windows, window{cpu: c - lastC, span: windowLen})
				lastC, lastT = c, now
				continue
			}
			p.windows = append(p.windows, window{updates: u - lastU, cpu: c - lastC, span: t.Sub(lastT)})
			lastU, lastC, lastT = u, c, t
		}
	}
}

// windowRates returns the median over windows of updates per second and
// of CPU microseconds per update.
func (p *phase) windowRates() (perSec, cpuPerUpdate float64) {
	var rates, cpus []float64
	for _, w := range p.windows {
		rates = append(rates, float64(w.updates)/w.span.Seconds())
		if w.updates > 0 {
			cpus = append(cpus, float64(w.cpu.Microseconds())/float64(w.updates))
		}
	}
	sort.Float64s(rates)
	sort.Float64s(cpus)
	return percentile(rates, 50), percentile(cpus, 50)
}

func (p *phase) sample() {
	defer p.sampWG.Done()
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-p.stopSamp:
			return
		case <-tick.C:
			p.goroutinesMax = max(p.goroutinesMax, runtime.NumGoroutine())
			p.poolQueueMax = max(p.poolQueueMax, p.m.Metrics().Tenancy.PoolQueueLen)
		}
	}
}

// finish closes the phase. retained is the bytes of answers the
// benchmark itself holds for checking, kept out of the heap figure.
func (p *phase) finish(retained int) {
	p.end = time.Now()
	p.elapsed = p.end.Sub(p.start)
	p.cpu = cpuTime() - p.cpu0
	close(p.stopWin)
	<-p.winDone
	p.updates, _ = p.acked()
	if p.stopSamp != nil {
		close(p.stopSamp)
		p.sampWG.Wait()
	}
	p.after = p.m.Metrics()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	p.heapDeltaMB = (float64(ms.HeapAlloc) - float64(p.heap0) - float64(retained)) / (1 << 20)
	p.allocBytes = ms.TotalAlloc - p.mem0.TotalAlloc
	p.gcCycles = ms.NumGC - p.mem0.NumGC
}

// late returns the generator's own lateness per query, in ms.
func (p *phase) late() []float64 {
	var out []float64
	for _, q := range p.queries {
		out = append(out, q.lateMS())
	}
	return out
}

// behind reports whether the query generator fell behind its schedule:
// at the highest percentile its sample supports, it sent more than half
// a query interval after it was free to. Query latency from such a run
// measures the generator, not the system.
func (p *phase) behind() (bool, string) {
	if len(p.queries) < 2 {
		return false, ""
	}
	interval := float64(p.queries[1].due.Sub(p.queries[0].due).Nanoseconds()) / 1e6
	d := summarize(p.late())
	if d.tail == 0 {
		return false, ""
	}
	return d.at > interval/2, fmt.Sprintf("generator late p%g %.3f ms against a %.0f ms query interval", d.tail, d.at, interval)
}

// counterDeltas are the manager counters a phase moved.
type counterDeltas struct {
	faults, evictions, rejected                        int64
	walAppends, walFlushes, walRotations, walCompacted int64
}

func (p *phase) deltas() counterDeltas {
	var d counterDeltas
	d.faults = p.after.Tenancy.Faults - p.before.Tenancy.Faults
	d.evictions = p.after.Tenancy.Evictions - p.before.Tenancy.Evictions
	for name, t := range p.after.Trackers {
		d.rejected += t.Rejected - p.before.Trackers[name].Rejected
	}
	if a, b := p.after.Durability, p.before.Durability; a != nil && b != nil {
		d.walAppends = a.WAL.Appends - b.WAL.Appends
		d.walFlushes = a.WAL.Flushes - b.WAL.Flushes
		d.walRotations = a.WAL.Rotations - b.WAL.Rotations
		d.walCompacted = a.WAL.SegmentsCompacted - b.WAL.SegmentsCompacted
	}
	return d
}

// protocolMessages sums the paper's message count over every tracker.
func protocolMessages(m service.Metrics) (msgs, count int64) {
	for _, t := range m.Trackers {
		msgs += t.UpMsgs + t.DownMsgs
		count += t.Count
	}
	return msgs, count
}

// inPhase keeps the spans that started inside the timed phase.
func (p *phase) inPhase(spans []span) []span {
	lo, hi := p.start.Sub(epoch).Nanoseconds(), p.end.Sub(epoch).Nanoseconds()
	var out []span
	for _, s := range spans {
		if s.Start >= lo && s.Start <= hi {
			out = append(out, s)
		}
	}
	return out
}

// perLayerUnits lists every per-layer metric with its unit, in report
// order; BENCHMARK.json's per_layer list mirrors it.
var perLayerUnits = []struct{ name, unit string }{
	{"http.rows_handler_busy_s", "s"},
	{"http.rows_handler_p50_ms", "ms"},
	{"http.rows_handler_p99_ms", "ms"},
	{"http.decode_self_ms_p50", "ms"},
	{"http.req_bytes_per_update", "B"},
	{"http.items_handler_p50_ms", "ms"},
	{"http.query_handler_p50_ms", "ms"},
	{"http.query_handler_p99_ms", "ms"},
	{"service.snapshot_p50_ms", "ms"},
	{"client.transport_ms_p50", "ms"},
	{"wire.rowblock_busy_s", "s"},
	{"wire.rowblock_p50_ms", "ms"},
	{"wire.rowblock_p99_ms", "ms"},
	{"wire.send_wait_p50_ms", "ms"},
	{"wire.send_wait_p99_ms", "ms"},
	{"wire.drain_ms", "ms"},
	{"wire.bytes_per_update", "B"},
	{"wire.frames_per_update", "count"},
	{"wire.retransmits", "count"},
	{"service.ingest_busy_s", "s"},
	{"service.ingest_p50_ms", "ms"},
	{"service.ingest_p99_ms", "ms"},
	{"service.self_ms_p50", "ms"},
	{"service.pool_queue_max", "count"},
	{"service.rejected", "count"},
	{"session.busy_s", "s"},
	{"session.batch_p50_ms", "ms"},
	{"session.batch_p99_ms", "ms"},
	{"session.self_ms_p50", "ms"},
	{"core.busy_s", "s"},
	{"core.batch_p50_ms", "ms"},
	{"core.messages_per_update", "count"},
	{"core.self_s", "s"},
	{"kernel.addblock_busy_s", "s"},
	{"tenancy.faults", "count"},
	{"tenancy.evictions", "count"},
	{"tenancy.fault_ratio", "ratio"},
	{"tenancy.read_bytes_per_fault", "B"},
	{"tenancy.ckpt_bytes_per_eviction", "B"},
	{"wal.appends", "count"},
	{"wal.flushes", "count"},
	{"wal.appends_per_flush", "ratio"},
	{"wal.bytes_per_update", "B"},
	{"wal.rotations", "count"},
	{"wal.segments_compacted", "count"},
	{"vfs.fsyncs", "count"},
	{"vfs.fsync_busy_s", "s"},
	{"vfs.fsync_p50_ms", "ms"},
	{"vfs.fsync_p99_ms", "ms"},
	{"vfs.write_bytes_per_update", "B"},
	{"vfs.read_bytes", "B"},
	{"runtime.alloc_bytes_per_update", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.goroutines_max", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// perLayer derives the per-layer metrics of a traced phase tp from its
// spans, its counters, and the layer descent; up is the untraced phase
// the tracing overhead is measured against.
func perLayer(tp, up *phase, rec *recorder, desc descent) []metric {
	for _, a := range tp.acks {
		rec.add(a)
	}
	u := float64(tp.updates)
	rows := tp.inPhase(rec.layer("http.rows"))
	items := tp.inPhase(rec.layer("http.items"))
	queries := tp.inPhase(rec.layer("http.query"))
	blocks := tp.inPhase(rec.layer("wire.rowblock"))
	fsyncs := tp.inPhase(rec.layer("vfs.fsync"))
	svc := rec.layer("service.ingest")
	sess := rec.layer("session.batch")
	core := rec.layer("core.batch")
	kernel := rec.layer("kernel.addblock")

	handled := append(append(append([]span(nil), rows...), items...), blocks...)
	var reqBytes int64
	for _, s := range append(append([]span(nil), rows...), items...) {
		reqBytes += s.Bytes
	}
	rowsD, itemsD, queryD := summarize(durations(rows)), summarize(durations(items)), summarize(durations(queries))
	blockD, svcD, sessD, coreD := summarize(durations(blocks)), summarize(durations(svc)), summarize(durations(sess)), summarize(durations(core))
	fsyncD := summarize(durations(fsyncs))
	sendD, drainD := summarize(tp.sendWait), summarize(tp.drainWait)
	late := summarize(tp.late())
	d := tp.deltas()
	var fsRead, walW, ckW int64
	if tp.fs != nil {
		fsRead = tp.fs.read.Load() - tp.fsRead0
		walW = tp.fs.walWritten.Load() - tp.fsWal0
		ckW = tp.fs.ckptWritten.Load() - tp.fsCk0
	}
	wireFrames := tp.sites.FramesOut + tp.sites.FramesIn
	wireBytes := tp.sites.BytesOut + tp.sites.BytesIn
	upRate, _ := up.windowRates()
	tpRate, _ := tp.windowRates()

	values := map[string]float64{
		"http.rows_handler_busy_s":        busy(rows),
		"http.rows_handler_p50_ms":        rowsD.p50,
		"http.rows_handler_p99_ms":        rowsD.p99,
		"http.decode_self_ms_p50":         summarize(selfTimes(rows, svc)).p50,
		"http.req_bytes_per_update":       float64(reqBytes) / u,
		"http.items_handler_p50_ms":       itemsD.p50,
		"http.query_handler_p50_ms":       queryD.p50,
		"http.query_handler_p99_ms":       queryD.p99,
		"service.snapshot_p50_ms":         summarize(durations(rec.layer("service.snapshot"))).p50,
		"client.transport_ms_p50":         summarize(selfTimes(tp.acks, handled)).p50,
		"wire.rowblock_busy_s":            busy(blocks),
		"wire.rowblock_p50_ms":            blockD.p50,
		"wire.rowblock_p99_ms":            blockD.p99,
		"wire.send_wait_p50_ms":           sendD.p50,
		"wire.send_wait_p99_ms":           sendD.p99,
		"wire.drain_ms":                   drainD.p50,
		"wire.bytes_per_update":           float64(wireBytes) / u,
		"wire.frames_per_update":          float64(wireFrames) / u,
		"wire.retransmits":                float64(tp.sites.Retransmits),
		"service.ingest_busy_s":           busy(svc),
		"service.ingest_p50_ms":           svcD.p50,
		"service.ingest_p99_ms":           svcD.p99,
		"service.self_ms_p50":             summarize(selfTimes(svc, sess)).p50,
		"service.pool_queue_max":          float64(tp.poolQueueMax),
		"service.rejected":                float64(d.rejected),
		"session.busy_s":                  busy(sess),
		"session.batch_p50_ms":            sessD.p50,
		"session.batch_p99_ms":            sessD.p99,
		"session.self_ms_p50":             summarize(selfTimes(sess, core)).p50,
		"core.busy_s":                     busy(core),
		"core.batch_p50_ms":               coreD.p50,
		"core.messages_per_update":        ratio(float64(desc.coreMessages), float64(desc.coreUpdates)),
		"core.self_s":                     busy(core) - busy(kernel),
		"kernel.addblock_busy_s":          busy(kernel),
		"tenancy.faults":                  float64(d.faults),
		"tenancy.evictions":               float64(d.evictions),
		"tenancy.fault_ratio":             ratio(float64(d.faults), float64(tp.attempted)),
		"tenancy.read_bytes_per_fault":    ratio(float64(fsRead), float64(d.faults)),
		"tenancy.ckpt_bytes_per_eviction": ratio(float64(ckW), float64(d.evictions)),
		"wal.appends":                     float64(d.walAppends),
		"wal.flushes":                     float64(d.walFlushes),
		"wal.appends_per_flush":           ratio(float64(d.walAppends), float64(d.walFlushes)),
		"wal.bytes_per_update":            float64(walW) / u,
		"wal.rotations":                   float64(d.walRotations),
		"wal.segments_compacted":          float64(d.walCompacted),
		"vfs.fsyncs":                      float64(fsyncD.n),
		"vfs.fsync_busy_s":                busy(fsyncs),
		"vfs.fsync_p50_ms":                fsyncD.p50,
		"vfs.fsync_p99_ms":                fsyncD.p99,
		"vfs.write_bytes_per_update":      float64(walW+ckW) / u,
		"vfs.read_bytes":                  float64(fsRead),
		"runtime.alloc_bytes_per_update":  float64(tp.allocBytes) / u,
		"runtime.gc_cycles":               float64(tp.gcCycles),
		"runtime.goroutines_max":          float64(tp.goroutinesMax),
		"loadgen.late_p99_ms":             late.p99,
		"trace.overhead_frac":             1 - tpRate/upRate,
	}
	notes := map[string]string{
		"http.rows_handler_p99_ms":  rowsD.p99Note(),
		"http.query_handler_p99_ms": queryD.p99Note(),
		"wire.rowblock_p99_ms":      blockD.p99Note(),
		"wire.send_wait_p99_ms":     sendD.p99Note(),
		"service.ingest_p99_ms":     svcD.p99Note(),
		"service.ingest_busy_s":     fmt.Sprintf("descent replayed %d of %d acknowledged batches", desc.replayed, desc.batches),
		"session.batch_p99_ms":      sessD.p99Note(),
		"vfs.fsync_p99_ms":          fsyncD.p99Note(),
		"loadgen.late_p99_ms":       late.p99Note(),
		"trace.overhead_frac":       fmt.Sprintf("traced %.0f/s vs untraced %.0f updates/s", tpRate, upRate),
	}
	out := make([]metric, len(perLayerUnits))
	for i, pl := range perLayerUnits {
		out[i] = metric{name: pl.name, unit: pl.unit, value: values[pl.name], note: notes[pl.name]}
	}
	return out
}
