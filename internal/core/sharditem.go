package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/gen"
	"repro/internal/stream"
)

// ItemShard is the per-shard surface of the sharded item tracker: one
// weighted-item ingest call plus the mutex-guarded communication tally.
// Both the heavy-hitters protocols (internal/hh) and the quantile tracker
// (internal/quantile) satisfy it; their packages wrap ShardedItemTracker
// with the protocol-specific merged query views.
type ItemShard interface {
	Process(site int, elem uint64, weight float64)
	Stats() stream.Stats
}

// ShardedItemTracker generalizes the ShardedTracker merge-on-query pattern
// from matrix rows to weighted items: the stream is dealt across P
// independent item-tracker instances, and the owning package merges their
// coordinator summaries at query time. It is deliberately query-agnostic —
// it owns only the deal (round-robin block dealing over bounded channels),
// the flush barrier, and the failure capture; what "merge" means (MG
// merge, estimate-map addition, q-digest node accumulation) lives with the
// shard type, where the summed error bound εW = Σ εW_k is argued.
//
// Ingestion: ProcessItems validates the whole batch synchronously in the
// caller, copies it into pooled item buffers (the caller may reuse its
// slice immediately), chunks it, and enqueues each chunk on the next
// shard's bounded queue. Determinism matches ShardedTracker: the shard an
// item lands on depends only on the call sequence and P, never on the
// goroutine schedule.
//
// Like every tracker in this package, a ShardedItemTracker is driven by
// one goroutine at a time; wrap it in internal/service for a concurrent
// ingestion surface. Call Close when done to stop the workers; a closed
// tracker still answers queries but panics on further ingestion.
type ShardedItemTracker struct {
	p, m   int
	shards []ItemShard
	queues []chan itemBlock
	// workers is closed-over by Close; the lifecycle mirrors ShardedTracker.
	workers sync.WaitGroup
	next    int // round-robin deal cursor
	items   []atomic.Int64
	free    chan *itemBuf
	closed  bool

	// failure holds the first worker panic; subsequent blocks are drained
	// unapplied and the panic re-raises on the next flush, so a failed
	// worker never deadlocks the caller.
	failMu  sync.Mutex
	failure any //distlint:guarded-by failMu
}

// shardChunkItems bounds the items per dealt block: large batches are split
// so a single big ProcessItems call still spreads across all shards. Items
// are 16 bytes and the per-item tracker work is a few map operations, so
// chunks are an order of magnitude larger than the matrix shardChunkRows to
// amortize the channel hop.
const shardChunkItems = 1024

// itemBlock is one unit of work for a shard worker: either a copied item
// block or a barrier (items nil), whose channel the worker closes once
// every earlier block on its queue has been applied.
type itemBlock struct {
	site    int
	items   []gen.WeightedItem
	buf     *itemBuf
	barrier chan struct{}
}

// itemBuf is a pooled copy target, recycled through ShardedItemTracker.free
// so the steady-state deal path allocates nothing.
type itemBuf struct {
	items []gen.WeightedItem
}

// NewShardedItemTracker builds a sharded item tracker over p shard
// instances for m sites, produced by build (called once per shard with the
// shard index; derive per-shard seeds from it for randomized protocols).
// The workers start immediately.
func NewShardedItemTracker(p, m int, build func(shard int) ItemShard) *ShardedItemTracker {
	if err := CheckShards(p); err != nil {
		panic(err.Error())
	}
	if err := stream.CheckSites(m); err != nil {
		panic("core: sharded item tracker: " + err.Error())
	}
	shards := make([]ItemShard, p)
	for i := range shards {
		shards[i] = build(i)
		if shards[i] == nil {
			panic(fmt.Sprintf("core: sharded item tracker: build(%d) returned nil", i))
		}
	}
	return newShardedItemsFromShards(m, shards)
}

// newShardedItemsFromShards wires the worker machinery around existing
// shard instances (the restore paths in internal/hh and internal/quantile
// reuse it with deserialized shards via NewShardedItemTracker).
func newShardedItemsFromShards(m int, shards []ItemShard) *ShardedItemTracker {
	st := &ShardedItemTracker{
		p:      len(shards),
		m:      m,
		shards: shards,
		queues: make([]chan itemBlock, len(shards)),
		items:  make([]atomic.Int64, len(shards)),
		free:   make(chan *itemBuf, len(shards)*shardQueueDepth+1),
	}
	for i := range st.queues {
		st.queues[i] = make(chan itemBlock, shardQueueDepth)
		st.workers.Add(1)
		go st.worker(i)
	}
	return st
}

// worker drains one shard's queue, applying blocks in order. A panic from
// the shard protocol is captured once; later blocks drain unapplied and
// barriers still release, so the caller observes the panic at its next
// flush instead of a deadlock.
func (st *ShardedItemTracker) worker(i int) {
	defer st.workers.Done()
	tr := st.shards[i]
	for blk := range st.queues[i] {
		if blk.barrier != nil {
			close(blk.barrier)
			continue
		}
		if st.failed() == nil {
			st.apply(tr, blk)
		}
		select {
		case st.free <- blk.buf:
		default: // pool full: let the extra buffer go to the GC
		}
	}
}

// apply runs one block through the shard, capturing a panic as the
// tracker's terminal failure.
func (st *ShardedItemTracker) apply(tr ItemShard, blk itemBlock) {
	defer func() {
		if r := recover(); r != nil {
			st.failMu.Lock()
			if st.failure == nil {
				st.failure = r
			}
			st.failMu.Unlock()
		}
	}()
	for _, it := range blk.items {
		tr.Process(blk.site, it.Elem, it.Weight)
	}
}

// failed returns the first worker panic, nil while healthy.
func (st *ShardedItemTracker) failed() any {
	st.failMu.Lock()
	defer st.failMu.Unlock()
	return st.failure
}

// Sites returns m, the shard protocols' site count.
func (st *ShardedItemTracker) Sites() int { return st.m }

// ShardCount returns P, the number of parallel shards.
func (st *ShardedItemTracker) ShardCount() int { return st.p }

// ShardItems returns how many items have been dealt to each shard — the
// per-shard ingest tally the service layer reports. Safe to call
// concurrently with queries from the driving goroutine's lock, not with
// ingestion itself.
func (st *ShardedItemTracker) ShardItems() []int64 {
	out := make([]int64, st.p)
	for i := range out {
		out[i] = st.items[i].Load()
	}
	return out
}

// Shard returns shard i's instance. The caller must not mutate it while
// ingestion is in flight; query it after a flushing call (Stats, Flush) or
// after Close.
func (st *ShardedItemTracker) Shard(i int) ItemShard { return st.shards[i] }

// DealCursor returns the round-robin deal cursor: the shard the next block
// will land on. Meaningful only after a flush; it is the one piece of
// wrapper state (beyond the shards themselves) a checkpoint must carry.
func (st *ShardedItemTracker) DealCursor() int { return st.next }

// RestoreDeal rewinds the deal cursor and per-shard item tallies to a
// checkpointed position, so a restored tracker deals the next block to the
// same shard the saved one would have. items may be nil (tallies reset).
func (st *ShardedItemTracker) RestoreDeal(next int, items []int64) error {
	if next < 0 || next >= st.p {
		return fmt.Errorf("core: sharded item snapshot deal cursor %d outside [0,%d)", next, st.p)
	}
	if items != nil && len(items) != st.p {
		return fmt.Errorf("core: sharded item snapshot has %d item tallies for %d shards", len(items), st.p)
	}
	st.next = next
	for i := range st.items {
		if items != nil {
			st.items[i].Store(items[i])
		} else {
			st.items[i].Store(0)
		}
	}
	return nil
}

// Process deals one item as a one-item block. Sharding pays off with batch
// feeds; per-item feeds work but spend a channel hop per item.
func (st *ShardedItemTracker) Process(site int, elem uint64, weight float64) {
	st.validate(site, weight)
	st.deal(site, []gen.WeightedItem{{Elem: elem, Weight: weight}})
}

// ProcessItems deals a same-site item batch: the whole batch is validated
// up front (an invalid item panics before anything is enqueued, so a
// rejected batch never partially applies), split into chunks of at most
// shardChunkItems, and dealt round-robin to the shard workers. The call
// returns once every chunk is enqueued; a query flushes. Callers that
// must validate element values against a bounded universe (the quantile
// wrapper) do so before calling, for the same atomicity.
func (st *ShardedItemTracker) ProcessItems(site int, items []gen.WeightedItem) {
	if site < 0 || site >= st.m {
		panic(fmt.Sprintf("core: sharded item tracker: site %d out of range [0,%d)", site, st.m))
	}
	for _, it := range items {
		if !validWeight(it.Weight) {
			panic(fmt.Sprintf("core: sharded item tracker: need a finite positive weight, got %v", it.Weight))
		}
	}
	for start := 0; start < len(items); start += shardChunkItems {
		end := start + shardChunkItems
		if end > len(items) {
			end = len(items)
		}
		st.deal(site, items[start:end])
	}
}

func (st *ShardedItemTracker) validate(site int, weight float64) {
	if site < 0 || site >= st.m {
		panic(fmt.Sprintf("core: sharded item tracker: site %d out of range [0,%d)", site, st.m))
	}
	if !validWeight(weight) {
		panic(fmt.Sprintf("core: sharded item tracker: need a finite positive weight, got %v", weight))
	}
}

// validWeight reports whether w is finite and positive; NaN fails, as
// every comparison with it does.
func validWeight(w float64) bool { return w > 0 && !math.IsInf(w, 1) }

// deal copies one chunk into a pooled buffer and enqueues it on the next
// shard's queue (round-robin).
//
//distlint:hotpath
func (st *ShardedItemTracker) deal(site int, items []gen.WeightedItem) {
	if st.closed {
		panic("core: sharded item tracker is closed")
	}
	if len(items) == 0 {
		return
	}
	buf := st.copyItems(items)
	shard := st.next
	st.next = (st.next + 1) % st.p
	st.items[shard].Add(int64(len(items)))
	st.queues[shard] <- itemBlock{site: site, items: buf.items[:len(items)], buf: buf}
}

// copyItems stages items into a pooled buffer, so the caller regains
// ownership of its slice as soon as ProcessItems returns.
//
//distlint:hotpath
func (st *ShardedItemTracker) copyItems(items []gen.WeightedItem) *itemBuf {
	var buf *itemBuf
	select {
	case buf = <-st.free:
	default:
		buf = &itemBuf{} //distlint:alloc-ok pool miss: grows the pool
	}
	if cap(buf.items) < len(items) {
		buf.items = make([]gen.WeightedItem, len(items)) //distlint:alloc-ok pool growth to the new high-water block size
	}
	copy(buf.items[:len(items)], items)
	return buf
}

// Flush is the merge barrier: it waits until every dealt block has been
// applied, then re-raises any worker panic in the caller — matching the
// unsharded protocols, whose ingest panics surface synchronously. A closed
// tracker has no in-flight work, so Flush is a no-op.
func (st *ShardedItemTracker) Flush() {
	if r := st.FlushErr(); r != nil {
		panic(r)
	}
}

// FlushErr is the non-panicking barrier: it waits for every dealt block to
// be applied and returns the first worker panic (nil while healthy). The
// checkpointing paths in internal/hh and internal/quantile use it so a
// background checkpointer survives a poisoned tracker.
func (st *ShardedItemTracker) FlushErr() any {
	if !st.closed {
		barriers := make([]chan struct{}, st.p)
		for i := range st.queues {
			barriers[i] = make(chan struct{})
			st.queues[i] <- itemBlock{barrier: barriers[i]}
		}
		for _, b := range barriers {
			<-b
		}
	}
	return st.failed()
}

// Close flushes outstanding work and stops the shard workers. The tracker
// still answers queries from the merged final state; further ingestion
// panics. Close is idempotent.
func (st *ShardedItemTracker) Close() {
	if st.closed {
		return
	}
	// Flush without re-panicking: Close must release the workers even after
	// a shard failure; the failure surfaces on the next query instead.
	st.FlushErr()
	st.closed = true
	for _, q := range st.queues {
		close(q)
	}
	st.workers.Wait()
}

// Stats sums the shard tallies in shard order after a flush barrier, so
// the tally covers every dealt block. Each shard runs its own protocol
// instance, so sharded communication grows by up to a factor of P over a
// single tracker on the same stream.
func (st *ShardedItemTracker) Stats() stream.Stats {
	st.Flush()
	return st.StatsApplied()
}

// StatsApplied sums the shard tallies WITHOUT the flush barrier: the tally
// covers blocks the workers have applied so far and may trail enqueued
// work by up to the queue depth — the monitoring read, matching
// ShardedTracker.StatsApplied's contract.
func (st *ShardedItemTracker) StatsApplied() stream.Stats {
	var s stream.Stats
	for _, tr := range st.shards {
		s.Add(tr.Stats())
	}
	return s
}
