package core

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/stream"
)

// ShardedItemTracker harness: the deal machinery shared by the hh and
// quantile merge-on-query wrappers. The protocol-level properties (merged
// error bounds, one-shard identity against real trackers) live with those
// packages; here the contract under test is the wrapper itself — the deal
// is deterministic, batches are atomic, failures surface at the flush
// barrier instead of deadlocking, and the lifecycle matches
// ShardedTracker.

// recordShard is a minimal ItemShard that logs every processed item, so
// tests can assert exactly which items each shard saw and in what order.
type recordShard struct {
	mu    sync.Mutex
	got   []gen.WeightedItem
	sites []int
}

func (r *recordShard) Process(site int, elem uint64, w float64) {
	r.mu.Lock()
	r.got = append(r.got, gen.WeightedItem{Elem: elem, Weight: w})
	r.sites = append(r.sites, site)
	r.mu.Unlock()
}

func (r *recordShard) Stats() stream.Stats { return stream.Stats{} }

// panicShard fails on a marked element, modeling a poisoned protocol.
type panicShard struct{ recordShard }

func (p *panicShard) Process(site int, elem uint64, w float64) {
	if elem == 666 {
		panic("poisoned element")
	}
	p.recordShard.Process(site, elem, w)
}

func itemStream(n int) []gen.WeightedItem {
	items := make([]gen.WeightedItem, n)
	for i := range items {
		items[i] = gen.WeightedItem{Elem: uint64(i % 97), Weight: 1 + float64(i%5)}
	}
	return items
}

// TestShardedItemDealDeterministic: the shard an item lands on is a pure
// function of the call sequence and P — chunks of shardChunkItems deal
// round-robin — and per-shard tallies match what each shard applied.
func TestShardedItemDealDeterministic(t *testing.T) {
	const p, m = 3, 2
	items := itemStream(5*shardChunkItems + 17)
	shards := make([]*recordShard, p)
	st := NewShardedItemTracker(p, m, func(i int) ItemShard {
		shards[i] = &recordShard{}
		return shards[i]
	})
	defer st.Close()
	st.ProcessItems(1, items)
	st.Flush()

	// Reproduce the deal by hand: chunks of shardChunkItems, round-robin.
	want := make([][]gen.WeightedItem, p)
	for start, shard := 0, 0; start < len(items); start, shard = start+shardChunkItems, (shard+1)%p {
		end := start + shardChunkItems
		if end > len(items) {
			end = len(items)
		}
		want[shard] = append(want[shard], items[start:end]...)
	}
	tallies := st.ShardItems()
	for i := range shards {
		if !reflect.DeepEqual(shards[i].got, want[i]) {
			t.Errorf("shard %d saw %d items, want %d in deal order", i, len(shards[i].got), len(want[i]))
		}
		if tallies[i] != int64(len(want[i])) {
			t.Errorf("ShardItems()[%d] = %d, want %d", i, tallies[i], len(want[i]))
		}
		for _, s := range shards[i].sites {
			if s != 1 {
				t.Fatalf("shard %d saw site %d, want 1", i, s)
			}
		}
	}
	if got := st.Sites(); got != m {
		t.Errorf("Sites() = %d, want %d", got, m)
	}
	if got := st.ShardCount(); got != p {
		t.Errorf("ShardCount() = %d, want %d", got, p)
	}
}

// TestShardedItemBatchAtomicity: an invalid item anywhere in the batch
// panics before anything is enqueued, so the shards see nothing — and the
// per-item Process path validates the same way.
func TestShardedItemBatchAtomicity(t *testing.T) {
	var shard recordShard
	st := NewShardedItemTracker(1, 2, func(int) ItemShard { return &shard })
	defer st.Close()

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	bad := []gen.WeightedItem{{Elem: 1, Weight: 1}, {Elem: 2, Weight: 0}, {Elem: 3, Weight: 1}}
	mustPanic("zero weight mid-batch", func() { st.ProcessItems(0, bad) })
	mustPanic("bad site", func() { st.ProcessItems(2, []gen.WeightedItem{{Elem: 1, Weight: 1}}) })
	mustPanic("per-item bad weight", func() { st.Process(0, 1, -1) })
	for _, w := range []float64{math.NaN(), math.Inf(1)} {
		mustPanic(fmt.Sprintf("%v weight mid-batch", w), func() {
			st.ProcessItems(0, []gen.WeightedItem{{Elem: 1, Weight: 1}, {Elem: 2, Weight: w}})
		})
		mustPanic(fmt.Sprintf("per-item %v weight", w), func() { st.Process(0, 1, w) })
	}
	mustPanic("per-item bad site", func() { st.Process(-1, 1, 1) })
	st.Flush()
	if len(shard.got) != 0 {
		t.Fatalf("rejected batches leaked %d items into the shard", len(shard.got))
	}

	st.ProcessItems(0, bad[:1])
	st.Flush()
	if len(shard.got) != 1 {
		t.Fatalf("clean batch applied %d items, want 1", len(shard.got))
	}
}

// TestShardedItemFailureCapture: a shard panic mid-ingest is captured, the
// barrier still releases (no deadlock), FlushErr reports it without
// panicking, Flush re-raises it, and Close still stops the workers.
func TestShardedItemFailureCapture(t *testing.T) {
	st := NewShardedItemTracker(2, 1, func(int) ItemShard { return &panicShard{} })
	st.ProcessItems(0, []gen.WeightedItem{{Elem: 1, Weight: 1}, {Elem: 666, Weight: 1}})
	if r := st.FlushErr(); r == nil {
		t.Fatal("FlushErr() = nil after a shard panic")
	} else if !strings.Contains(r.(string), "poisoned") {
		t.Fatalf("FlushErr() = %v, want the shard panic value", r)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Flush did not re-raise the shard panic")
			}
		}()
		st.Flush()
	}()
	// Further ingest drains unapplied instead of wedging the queue.
	st.ProcessItems(0, itemStream(3*shardChunkItems))
	if r := st.FlushErr(); r == nil {
		t.Fatal("failure cleared by later ingest")
	}
	st.Close()
	st.Close() // idempotent after failure too
}

// TestShardedItemLifecycle: Close flushes, is idempotent, keeps queries
// working, and further ingestion panics with the closed message.
func TestShardedItemLifecycle(t *testing.T) {
	var shard recordShard
	st := NewShardedItemTracker(1, 1, func(int) ItemShard { return &shard })
	st.ProcessItems(0, itemStream(10))
	st.Close()
	if len(shard.got) != 10 {
		t.Fatalf("Close applied %d items, want 10", len(shard.got))
	}
	st.Close()
	st.Flush() // no-op on a closed tracker
	if got := st.StatsApplied(); got != (stream.Stats{}) {
		t.Errorf("StatsApplied() = %v, want zero", got)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("ingest after Close: no panic")
		}
		if !strings.Contains(r.(string), "closed") {
			t.Fatalf("ingest after Close panicked with %v, want the closed message", r)
		}
	}()
	st.Process(0, 1, 1)
}

// TestShardedItemRestoreDeal covers the checkpoint cursor surface: a
// restored cursor redirects the next deal, tallies restore or zero, and
// out-of-range snapshots are rejected with errors (not panics).
func TestShardedItemRestoreDeal(t *testing.T) {
	const p = 3
	shards := make([]*recordShard, p)
	st := NewShardedItemTracker(p, 1, func(i int) ItemShard {
		shards[i] = &recordShard{}
		return shards[i]
	})
	defer st.Close()

	if err := st.RestoreDeal(2, []int64{4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	if got := st.DealCursor(); got != 2 {
		t.Fatalf("DealCursor() = %d after restore, want 2", got)
	}
	if got := st.ShardItems(); !reflect.DeepEqual(got, []int64{4, 5, 6}) {
		t.Fatalf("ShardItems() = %v after restore, want [4 5 6]", got)
	}
	st.ProcessItems(0, itemStream(1))
	st.Flush()
	if len(shards[2].got) != 1 {
		t.Fatal("restored cursor did not redirect the next block to shard 2")
	}
	if err := st.RestoreDeal(0, nil); err != nil {
		t.Fatal(err)
	}
	if got := st.ShardItems(); !reflect.DeepEqual(got, []int64{0, 0, 0}) {
		t.Fatalf("ShardItems() = %v after nil-tally restore, want zeros", got)
	}

	if err := st.RestoreDeal(p, nil); err == nil {
		t.Error("cursor = p accepted, want error")
	}
	if err := st.RestoreDeal(-1, nil); err == nil {
		t.Error("negative cursor accepted, want error")
	}
	if err := st.RestoreDeal(0, []int64{1}); err == nil {
		t.Error("short tally slice accepted, want error")
	}
}

// TestShardedItemConstructorValidation: bad shard counts, site counts, and
// nil builders panic at construction, before any worker starts.
func TestShardedItemConstructorValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"zero shards": func() { NewShardedItemTracker(0, 1, func(int) ItemShard { return &recordShard{} }) },
		"zero sites":  func() { NewShardedItemTracker(1, 0, func(int) ItemShard { return &recordShard{} }) },
		"nil shard":   func() { NewShardedItemTracker(1, 1, func(int) ItemShard { return nil }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}
