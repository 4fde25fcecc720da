package hh

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stream"
)

// Checkpoint/restore for the single-process protocol simulators. Snapshots
// are plain exported structs (gob-encodable); a restored protocol resumes
// exactly where the snapshot was taken — same estimates, same thresholds,
// same communication tally — preserving the continuous εW guarantee.
// Deterministic protocols only: the sampling protocols (P3, P4) carry RNG
// state that cannot be re-seeded mid-stream, so they are not persistable.

// P2SiteSnapshot is the serializable state of one P2 site.
type P2SiteSnapshot struct {
	Weight float64
	Delta  map[uint64]float64
}

// P2Snapshot is the serializable state of a heavy-hitters P2 instance.
type P2Snapshot struct {
	M     int
	Eps   float64
	Sites []P2SiteSnapshot
	// Coordinator state.
	CoordWhat float64
	SiteWhat  float64
	NMsg      int
	Estimate  map[uint64]float64
	Stats     stream.Stats
}

// Snapshotable reports whether Snapshot can serialize this instance: true
// for the exact-delta P2, false for the SpaceSaving site-space variant,
// whose bounded summaries are not snapshot-stable.
func (p *P2) Snapshotable() bool { return p.sites[0].ss == nil }

// Snapshot captures the site half's state. It errors on the SpaceSaving
// site-space variant, whose bounded summary is not snapshot-stable.
func (s *P2Site) Snapshot() (P2SiteSnapshot, error) {
	if s.ss != nil {
		return P2SiteSnapshot{}, fmt.Errorf("hh: the SpaceSaving P2 variant is not persistable")
	}
	delta := make(map[uint64]float64, len(s.delta))
	for e, w := range s.delta {
		delta[e] = w
	}
	return P2SiteSnapshot{Weight: s.weight, Delta: delta}, nil
}

// Restore adopts a snapshot into an exact-delta site half, with the Ŵ the
// site had last received.
func (s *P2Site) Restore(snap P2SiteSnapshot, what float64) {
	s.weight = snap.Weight
	for e, w := range snap.Delta {
		s.delta[e] = w
	}
	s.what = what
}

// Snapshot returns copies of the coordinator state: the estimate map, Ŵ,
// and the scalar reports since the last broadcast.
func (c *P2Coordinator) Snapshot() (estimate map[uint64]float64, what float64, nmsg int) {
	estimate = make(map[uint64]float64, len(c.estimate))
	for e, w := range c.estimate {
		estimate[e] = w
	}
	return estimate, c.what, c.nmsg
}

// RestoreP2Coordinator rebuilds a coordinator half from the values its
// Snapshot returned.
func RestoreP2Coordinator(m int, estimate map[uint64]float64, what float64, nmsg int) *P2Coordinator {
	c := NewP2Coordinator(m)
	c.what = what
	c.nmsg = nmsg
	for e, w := range estimate {
		c.estimate[e] = w
	}
	return c
}

// Snapshot captures the protocol's state. It errors on the SpaceSaving
// site-space variant, whose bounded summaries are not snapshot-stable.
func (p *P2) Snapshot() (P2Snapshot, error) {
	sites := make([]P2SiteSnapshot, len(p.sites))
	for i := range p.sites {
		snap, err := p.sites[i].Snapshot()
		if err != nil {
			return P2Snapshot{}, err
		}
		sites[i] = snap
	}
	est, what, nmsg := p.coord.Snapshot()
	return P2Snapshot{
		M: p.m, Eps: p.eps, Sites: sites,
		CoordWhat: what, SiteWhat: p.sites[0].what, NMsg: nmsg,
		Estimate: est, Stats: p.acct.Stats(),
	}, nil
}

// RestoreP2 rebuilds a heavy-hitters P2 instance from a snapshot.
func RestoreP2(snap P2Snapshot) (*P2, error) {
	if err := CheckParams(snap.M, snap.Eps); err != nil {
		return nil, err
	}
	if len(snap.Sites) != snap.M {
		return nil, fmt.Errorf("hh: snapshot has %d sites for m=%d", len(snap.Sites), snap.M)
	}
	p := NewP2(snap.M, snap.Eps)
	p.coord = RestoreP2Coordinator(snap.M, snap.Estimate, snap.CoordWhat, snap.NMsg)
	for i, s := range snap.Sites {
		p.sites[i].Restore(s, snap.SiteWhat)
	}
	p.acct.RestoreStats(snap.Stats)
	return p, nil
}

// ExactSnapshot is the serializable state of the exact tracker.
type ExactSnapshot struct {
	M     int
	Freq  map[uint64]float64
	Total float64
	Stats stream.Stats
}

// Snapshot captures the tracker's state.
func (e *Exact) Snapshot() ExactSnapshot {
	freq := make(map[uint64]float64, len(e.freq))
	for el, w := range e.freq {
		freq[el] = w
	}
	return ExactSnapshot{M: e.m, Freq: freq, Total: e.total, Stats: e.acct.Stats()}
}

// RestoreExact rebuilds an exact tracker from a snapshot.
func RestoreExact(snap ExactSnapshot) (*Exact, error) {
	if err := stream.CheckSites(snap.M); err != nil {
		return nil, fmt.Errorf("hh: %w", err)
	}
	e := NewExact(snap.M)
	for el, w := range snap.Freq {
		e.freq[el] = w
	}
	e.total = snap.Total
	e.acct.RestoreStats(snap.Stats)
	return e, nil
}

// ShardedP2Snapshot is the serializable state of a sharded P2 tracker:
// every shard's full snapshot plus the deal cursor and per-shard item
// tallies, so a restored tracker deals the next block to the same shard
// the saved one would have.
type ShardedP2Snapshot struct {
	Shards []P2Snapshot
	Next   int
	Items  []int64
}

// SnapshotSharded captures a sharded P2 tracker. It flushes first (without
// re-raising shard panics — a poisoned tracker yields an error here, not a
// crashed checkpointer) and errors unless every shard is a snapshotable
// P2 instance.
func SnapshotSharded(s *Sharded) (ShardedP2Snapshot, error) {
	if r := s.FlushErr(); r != nil {
		return ShardedP2Snapshot{}, fmt.Errorf("hh: sharded tracker failed during ingest: %v", r)
	}
	shards := make([]P2Snapshot, s.ShardCount())
	for i := range shards {
		p2, ok := s.Shard(i).(*P2)
		if !ok {
			return ShardedP2Snapshot{}, fmt.Errorf("hh: shard %d is %s, not a persistable P2", i, s.Shard(i).Name())
		}
		snap, err := p2.Snapshot()
		if err != nil {
			return ShardedP2Snapshot{}, fmt.Errorf("hh: shard %d: %w", i, err)
		}
		shards[i] = snap
	}
	return ShardedP2Snapshot{Shards: shards, Next: s.st.DealCursor(), Items: s.ShardItems()}, nil
}

// RestoreSharded rebuilds a sharded P2 tracker from a snapshot, rejecting
// cross-shard parameter disagreement with a wrapped ErrMergeMismatch — the
// merge boundary returns errors rather than letting a corrupted snapshot
// panic the first query.
func RestoreSharded(snap ShardedP2Snapshot) (*Sharded, error) {
	if err := core.CheckShards(len(snap.Shards)); err != nil {
		return nil, fmt.Errorf("hh: sharded snapshot: %w", err)
	}
	protos := make([]Protocol, len(snap.Shards))
	for i, ss := range snap.Shards {
		if ss.M != snap.Shards[0].M || ss.Eps != snap.Shards[0].Eps {
			return nil, fmt.Errorf("hh: sharded snapshot shard %d has (m=%d, eps=%v), shard 0 has (m=%d, eps=%v): %w",
				i, ss.M, ss.Eps, snap.Shards[0].M, snap.Shards[0].Eps, ErrMergeMismatch)
		}
		p2, err := RestoreP2(ss)
		if err != nil {
			return nil, fmt.Errorf("hh: sharded snapshot shard %d: %w", i, err)
		}
		protos[i] = p2
	}
	s := newShardedFromProtocols(snap.Shards[0].M, protos)
	if err := s.st.RestoreDeal(snap.Next, snap.Items); err != nil {
		s.Close()
		return nil, fmt.Errorf("hh: %w", err)
	}
	return s, nil
}

// ShardedExactSnapshot is the serializable state of a sharded exact
// tracker (shard snapshots + deal cursor, as for ShardedP2Snapshot).
type ShardedExactSnapshot struct {
	Shards []ExactSnapshot
	Next   int
	Items  []int64
}

// SnapshotShardedExact captures a sharded exact tracker, flushing first
// without re-raising shard panics.
func SnapshotShardedExact(s *Sharded) (ShardedExactSnapshot, error) {
	if r := s.FlushErr(); r != nil {
		return ShardedExactSnapshot{}, fmt.Errorf("hh: sharded tracker failed during ingest: %v", r)
	}
	shards := make([]ExactSnapshot, s.ShardCount())
	for i := range shards {
		ex, ok := s.Shard(i).(*Exact)
		if !ok {
			return ShardedExactSnapshot{}, fmt.Errorf("hh: shard %d is %s, not an exact tracker", i, s.Shard(i).Name())
		}
		shards[i] = ex.Snapshot()
	}
	return ShardedExactSnapshot{Shards: shards, Next: s.st.DealCursor(), Items: s.ShardItems()}, nil
}

// RestoreShardedExact rebuilds a sharded exact tracker from a snapshot.
func RestoreShardedExact(snap ShardedExactSnapshot) (*Sharded, error) {
	if err := core.CheckShards(len(snap.Shards)); err != nil {
		return nil, fmt.Errorf("hh: sharded snapshot: %w", err)
	}
	protos := make([]Protocol, len(snap.Shards))
	for i, ss := range snap.Shards {
		if ss.M != snap.Shards[0].M {
			return nil, fmt.Errorf("hh: sharded snapshot shard %d has m=%d, shard 0 has m=%d: %w",
				i, ss.M, snap.Shards[0].M, ErrMergeMismatch)
		}
		ex, err := RestoreExact(ss)
		if err != nil {
			return nil, fmt.Errorf("hh: sharded snapshot shard %d: %w", i, err)
		}
		protos[i] = ex
	}
	s := newShardedFromProtocols(snap.Shards[0].M, protos)
	if err := s.st.RestoreDeal(snap.Next, snap.Items); err != nil {
		s.Close()
		return nil, fmt.Errorf("hh: %w", err)
	}
	return s, nil
}
