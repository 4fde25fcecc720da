package node

import (
	"repro/internal/core"
	"repro/internal/hh"
)

// Checkpoint/restore for the runtime nodes. Snapshots are plain exported
// structs (gob-encodable); a site snapshot embeds the protocol's own site
// snapshot, so a deployment can persist protocol state across process
// restarts without losing the continuous guarantee: a restored node
// resumes exactly where the snapshot was taken (any rows or items that
// arrived after the snapshot are the operator's replay responsibility, as
// with any at-least-once ingestion pipeline).

// HHSiteSnapshot is the serializable state of an HHSite.
type HHSiteSnapshot struct {
	ID   int
	M    int
	Eps  float64
	What float64 // Ŵ as last received
	hh.P2SiteSnapshot
	SentN int64
}

// Snapshot captures the site's state.
func (s *HHSite) Snapshot() HHSiteSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	// The node runtime builds exact-delta halves, which always snapshot.
	half, _ := s.half.Snapshot()
	return HHSiteSnapshot{
		ID: s.ID(), M: s.m, Eps: s.eps,
		What: s.half.Estimate(), P2SiteSnapshot: half, SentN: s.sent,
	}
}

// RestoreHHSite rebuilds a site from a snapshot, wired to a new sender.
func RestoreHHSite(snap HHSiteSnapshot, out Sender) (*HHSite, error) {
	s, err := NewHHSite(snap.ID, snap.M, snap.Eps, out)
	if err != nil {
		return nil, err
	}
	s.half.Restore(snap.P2SiteSnapshot, snap.What)
	s.sent = snap.SentN
	return s, nil
}

// HHCoordinatorSnapshot is the serializable state of an HHCoordinator.
type HHCoordinatorSnapshot struct {
	M        int
	Eps      float64
	What     float64
	NMsg     int
	Estimate map[uint64]float64
	Received int64
	Bcasts   int64
	History  []float64 // broadcast Ŵ trajectory, oldest first
}

// Snapshot captures the coordinator's state.
func (c *HHCoordinator) Snapshot() HHCoordinatorSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	est, what, nmsg := c.coord.Snapshot()
	return HHCoordinatorSnapshot{
		M: c.m, Eps: c.eps, What: what, NMsg: nmsg,
		Estimate: est, Received: c.received, Bcasts: c.bcasts,
		History: append([]float64(nil), c.history...),
	}
}

// RestoreHHCoordinator rebuilds a coordinator from a snapshot.
func RestoreHHCoordinator(snap HHCoordinatorSnapshot, broadcast Sender) (*HHCoordinator, error) {
	c, err := NewHHCoordinator(snap.M, snap.Eps, broadcast)
	if err != nil {
		return nil, err
	}
	c.coord = hh.RestoreP2Coordinator(snap.M, snap.Estimate, snap.What, snap.NMsg)
	c.received = snap.Received
	c.bcasts = snap.Bcasts
	c.history = append([]float64(nil), snap.History...)
	return c, nil
}

// MatSiteSnapshot is the serializable state of a MatSite.
type MatSiteSnapshot struct {
	ID   int
	M    int
	D    int
	Eps  float64
	Fast bool
	Fhat float64 // F̂ as last received
	core.P2SiteSnapshot
	SentN int64
}

// Snapshot captures the site's state.
func (s *MatSite) Snapshot() MatSiteSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return MatSiteSnapshot{
		ID: s.ID(), M: s.m, D: s.d, Eps: s.eps, Fast: s.fast,
		Fhat: s.half.Estimate(), P2SiteSnapshot: s.half.Snapshot(), SentN: s.sent,
	}
}

// RestoreMatSite rebuilds a site from a snapshot, wired to a new sender.
func RestoreMatSite(snap MatSiteSnapshot, out Sender) (*MatSite, error) {
	s, err := NewMatSite(snap.ID, snap.M, snap.Eps, snap.D, out)
	if err != nil {
		return nil, err
	}
	if err := s.half.Restore(snap.P2SiteSnapshot, snap.Fhat); err != nil {
		return nil, err
	}
	s.fast = snap.Fast
	s.sent = snap.SentN
	return s, nil
}

// MatCoordinatorSnapshot is the serializable state of a MatCoordinator.
type MatCoordinatorSnapshot struct {
	M        int
	D        int
	Eps      float64
	Fhat     float64
	NMsg     int
	Gram     []float64
	Received int64
	Bcasts   int64
	History  []float64 // broadcast F̂ trajectory, oldest first
}

// Snapshot captures the coordinator's state.
func (c *MatCoordinator) Snapshot() MatCoordinatorSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	gram, fhat, nmsg := c.coord.Snapshot()
	return MatCoordinatorSnapshot{
		M: c.m, D: c.d, Eps: c.eps, Fhat: fhat, NMsg: nmsg,
		Gram: gram, Received: c.received, Bcasts: c.bcasts,
		History: append([]float64(nil), c.history...),
	}
}

// RestoreMatCoordinator rebuilds a coordinator from a snapshot.
func RestoreMatCoordinator(snap MatCoordinatorSnapshot, broadcast Sender) (*MatCoordinator, error) {
	c, err := NewMatCoordinator(snap.M, snap.Eps, snap.D, broadcast)
	if err != nil {
		return nil, err
	}
	coord, err := core.RestoreP2Coordinator(snap.M, snap.D, snap.Gram, snap.Fhat, snap.NMsg)
	if err != nil {
		return nil, err
	}
	c.coord = coord
	c.received = snap.Received
	c.bcasts = snap.Bcasts
	c.history = append([]float64(nil), snap.History...)
	return c, nil
}
