package node

import (
	"fmt"

	"repro/internal/hh"
	"repro/internal/sketch"
)

// HHSite hosts the site half of heavy-hitters P2 (hh.P2Site, Algorithm
// 4.3) for concurrent callers: feed it items from any goroutine, deliver
// coordinator broadcasts from the transport's receive loop, and it emits
// messages through the configured Sender.
type HHSite struct {
	site
	m    int
	eps  float64
	half *hh.P2Site
}

// NewHHSite builds site id of m running at error ε, emitting to out.
func NewHHSite(id, m int, eps float64, out Sender) (*HHSite, error) {
	if err := hh.CheckParams(m, eps); err != nil {
		return nil, err
	}
	if err := checkSite(id, m, out); err != nil {
		return nil, err
	}
	s := &HHSite{site: site{out: out, box: outbox{site: id}}, m: m, eps: eps}
	s.half = hh.NewP2Site(m, eps, &s.box)
	s.est = s.half
	return s, nil
}

// HandleItem processes one stream arrival at this site. The weight must be
// finite and positive.
func (s *HHSite) HandleItem(elem uint64, w float64) error {
	if err := hh.CheckWeight(w); err != nil {
		return err
	}
	s.mu.Lock()
	s.half.Process(elem, w)
	return s.flushLocked(nil)
}

// HHCoordinator hosts the coordinator half of heavy-hitters P2
// (hh.P2Coordinator, Algorithm 4.4): it accumulates scalar and element
// reports from sites and broadcasts a refreshed Ŵ after every m scalar
// reports. Thread-safe; no lock is held across broadcast sends.
type HHCoordinator struct {
	hub
	m     int
	eps   float64
	coord *hh.P2Coordinator
}

// NewHHCoordinator builds the coordinator for m sites at error ε.
// broadcast delivers one message to every site.
func NewHHCoordinator(m int, eps float64, broadcast Sender) (*HHCoordinator, error) {
	if err := hh.CheckParams(m, eps); err != nil {
		return nil, err
	}
	if broadcast == nil {
		return nil, errNilBroadcast
	}
	c := &HHCoordinator{hub: hub{broadcast: broadcast}, m: m, eps: eps, coord: hh.NewP2Coordinator(m)}
	c.apply = c.applyLocked
	return c, nil
}

// applyLocked validates one site message and feeds it to the coordinator
// half.
func (c *HHCoordinator) applyLocked(m Message) (bool, float64, error) {
	switch m.Kind {
	case KindTotal:
		if err := checkReport(m.Value); err != nil {
			return false, 0, err
		}
		return c.coord.AddTotal(m.Value), c.coord.EstimateTotal(), nil
	case KindElement:
		if err := checkReport(m.Value); err != nil {
			return false, 0, err
		}
		c.coord.AddElement(m.Elem, m.Value)
		return false, 0, nil
	}
	return false, 0, fmt.Errorf("node: coordinator received %v message", m.Kind)
}

// Estimate returns Ŵ_e for an element.
func (c *HHCoordinator) Estimate(elem uint64) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.coord.Estimate(elem)
}

// EstimateTotal returns the running Ŵ.
func (c *HHCoordinator) EstimateTotal() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.coord.EstimateTotal()
}

// HeavyHitters returns every element with Ŵ_e/Ŵ ≥ φ − ε/2, sorted by
// descending estimate (the paper's query rule), or nil for φ outside
// (0, 1].
func (c *HHCoordinator) HeavyHitters(phi float64) []sketch.WeightedElement {
	if phi <= 0 || phi > 1 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.coord.HeavyHitters(phi, c.eps)
}
