package core

import (
	"fmt"

	"repro/internal/matrix"
	"repro/internal/stream"
)

// Checkpoint/restore for the matrix P2 simulator, the paper's headline
// protocol and the one a long-lived deployment hosts. The snapshot is a
// plain exported struct (gob-encodable); a restored instance resumes
// exactly where the snapshot was taken — same site Grams, same deferred-svd
// bounds, same communication tally — preserving the continuous ε‖A‖²_F
// guarantee. The sampling protocols (P3, P4) carry RNG state that cannot be
// re-seeded mid-stream and are not persistable.

// P2SiteSnapshot is the serializable state of one matrix P2 site.
type P2SiteSnapshot struct {
	Gram     []float64 // row-major d×d G_j
	Fdelta   float64
	LamBound float64
	SoleRow  []float64 // nil unless the unsent matrix is exactly one row
	Empty    bool
}

// P2Snapshot is the serializable state of a matrix P2 instance.
type P2Snapshot struct {
	M, D     int
	Eps      float64
	ShipFrac float64
	Fast     bool // true when the instance ran in the blocked fast ingest mode
	Decomps  int64
	Sites    []P2SiteSnapshot
	// Coordinator state.
	Gram      []float64 // row-major d×d BᵀB
	CoordFhat float64
	SiteFhat  float64
	NMsg      int
	Stats     stream.Stats
}

// Snapshot captures the site half's state.
func (s *P2Site) Snapshot() P2SiteSnapshot {
	var sole []float64
	if s.soleRow != nil {
		sole = append(sole, s.soleRow...)
	}
	return P2SiteSnapshot{
		Gram: s.gram.RawData(), Fdelta: s.fdelta, LamBound: s.lamBound,
		SoleRow: sole, Empty: s.empty,
	}
}

// Restore adopts a site snapshot and the F̂ the site had last received.
func (s *P2Site) Restore(snap P2SiteSnapshot, fhat float64) error {
	d := s.rule.d
	if len(snap.Gram) != d*d {
		return fmt.Errorf("core: snapshot Gram has %d values for d=%d", len(snap.Gram), d)
	}
	if snap.SoleRow != nil && len(snap.SoleRow) != d {
		return fmt.Errorf("core: sole row has %d values for d=%d", len(snap.SoleRow), d)
	}
	// Bit-exact adoption: the deferred-svd bounds must see exactly the
	// matrices the saved instance held.
	s.gram = matrix.SymFromRaw(d, snap.Gram)
	s.fdelta = snap.Fdelta
	s.lamBound = snap.LamBound
	s.soleRow = nil
	if snap.SoleRow != nil {
		s.soleRow = append([]float64(nil), snap.SoleRow...)
	}
	s.empty = snap.Empty
	s.fhat = fhat
	return nil
}

// Snapshot captures the protocol's state.
func (p *P2) Snapshot() P2Snapshot {
	sites := make([]P2SiteSnapshot, len(p.sites))
	for i := range p.sites {
		sites[i] = p.sites[i].Snapshot()
	}
	gram, fhat, nmsg := p.coord.Snapshot()
	return P2Snapshot{
		M: p.rule.m, D: p.rule.d, Eps: p.rule.eps, ShipFrac: p.rule.shipFrac,
		Fast: p.mode == IngestFast, Decomps: p.rule.decomps,
		Sites: sites, Gram: gram,
		CoordFhat: fhat, SiteFhat: p.sites[0].fhat, NMsg: nmsg,
		Stats: p.acct.Stats(),
	}
}

// ShardedP2Snapshot is the serializable state of a ShardedTracker whose
// shards are matrix P2 instances — the persistable sharded configuration.
// One P2Snapshot per shard, in shard order; the deal cursor is the only
// other state the wrapper carries, so a restored tracker deals the next
// block to the same shard the saved one would have.
type ShardedP2Snapshot struct {
	Shards []P2Snapshot
	Next   int     // round-robin deal cursor
	Rows   []int64 // rows dealt per shard (observability tally)
}

// SnapshotableP2 reports whether SnapshotShardedP2 can serialize this
// tracker: every shard must be a matrix P2 instance.
func (st *ShardedTracker) SnapshotableP2() bool {
	for _, tr := range st.shards {
		if _, ok := tr.(*P2); !ok {
			return false
		}
	}
	return true
}

// SnapshotShardedP2 captures the tracker's state after flushing all
// in-flight blocks. It fails if any shard is not a matrix P2 instance, and
// reports a shard worker's terminal failure as an error rather than a
// panic, so a background checkpointer survives a poisoned tracker.
func (st *ShardedTracker) SnapshotShardedP2() (ShardedP2Snapshot, error) {
	if r := st.flushErr(); r != nil {
		return ShardedP2Snapshot{}, fmt.Errorf("core: sharded snapshot: shard worker failed: %v", r)
	}
	snap := ShardedP2Snapshot{
		Shards: make([]P2Snapshot, st.p),
		Next:   st.next,
		Rows:   st.ShardRows(),
	}
	for i, tr := range st.shards {
		p2, ok := tr.(*P2)
		if !ok {
			return ShardedP2Snapshot{}, fmt.Errorf("core: sharded snapshot: shard %d is %T, want *P2", i, tr)
		}
		snap.Shards[i] = p2.Snapshot()
	}
	return snap, nil
}

// RestoreShardedP2 rebuilds a sharded matrix P2 tracker from a snapshot and
// starts its workers. The restored tracker answers every query identically
// to the saved one and resumes dealing at the saved cursor. Shards must
// agree on (m, ε, d) — always true of registry-built sharded trackers; the
// checks reject corrupt checkpoints with an error instead of a downstream
// panic or a silently mixed guarantee.
func RestoreShardedP2(snap ShardedP2Snapshot) (*ShardedTracker, error) {
	if err := CheckShards(len(snap.Shards)); err != nil {
		return nil, err
	}
	if snap.Next < 0 || snap.Next >= len(snap.Shards) {
		return nil, fmt.Errorf("core: sharded snapshot deal cursor %d outside [0,%d)", snap.Next, len(snap.Shards))
	}
	if snap.Rows != nil && len(snap.Rows) != len(snap.Shards) {
		return nil, fmt.Errorf("core: sharded snapshot has %d row tallies for %d shards", len(snap.Rows), len(snap.Shards))
	}
	shards := make([]Tracker, len(snap.Shards))
	for i, s := range snap.Shards {
		// Disagreeing dimensions are a constructor panic downstream and
		// disagreeing site counts poison the first cross-shard deal; on a
		// corrupt checkpoint both must surface as an error instead.
		if s.D != snap.Shards[0].D {
			return nil, fmt.Errorf("core: sharded snapshot: shard %d has dim %d, shard 0 has %d",
				i, s.D, snap.Shards[0].D)
		}
		if s.M != snap.Shards[0].M {
			return nil, fmt.Errorf("core: sharded snapshot: shard %d has %d sites, shard 0 has %d",
				i, s.M, snap.Shards[0].M)
		}
		if s.Eps != snap.Shards[0].Eps {
			return nil, fmt.Errorf("core: sharded snapshot: shard %d has ε=%v, shard 0 has %v",
				i, s.Eps, snap.Shards[0].Eps)
		}
		p2, err := RestoreP2(s)
		if err != nil {
			return nil, fmt.Errorf("core: shard %d: %w", i, err)
		}
		shards[i] = p2
	}
	st := newShardedFromTrackers(shards)
	st.next = snap.Next
	for i, n := range snap.Rows {
		st.rows[i].Store(n)
	}
	return st, nil
}

// RestoreP2 rebuilds a matrix P2 instance from a snapshot.
func RestoreP2(snap P2Snapshot) (*P2, error) {
	if err := CheckParams(snap.M, snap.Eps, snap.D); err != nil {
		return nil, err
	}
	if snap.ShipFrac <= 0 || snap.ShipFrac > 1 {
		return nil, fmt.Errorf("core: snapshot ship fraction %v outside (0, 1]", snap.ShipFrac)
	}
	if len(snap.Sites) != snap.M {
		return nil, fmt.Errorf("core: snapshot has %d sites for m=%d", len(snap.Sites), snap.M)
	}
	p := NewP2ShipFraction(snap.M, snap.Eps, snap.D, snap.ShipFrac)
	if snap.Fast {
		p.mode = IngestFast
	}
	coord, err := RestoreP2Coordinator(snap.M, snap.D, snap.Gram, snap.CoordFhat, snap.NMsg)
	if err != nil {
		return nil, err
	}
	p.coord = coord
	p.rule.decomps = snap.Decomps
	for i, s := range snap.Sites {
		if err := p.sites[i].Restore(s, snap.SiteFhat); err != nil {
			return nil, fmt.Errorf("core: site %d: %w", i, err)
		}
	}
	p.acct.RestoreStats(snap.Stats)
	return p, nil
}
