package hh

import (
	"sort"

	"repro/internal/sketch"
	"repro/internal/stream"
)

// P2 is the deterministic protocol of Section 4.2 (Algorithms 4.3/4.4),
// the weighted extension of Yi–Zhang. Sites never ship whole summaries:
// site i reports a scalar when its unsent weight W_i reaches (ε/m)·Ŵ, and
// reports a single element e when that element's unsent weight Δ_e reaches
// (ε/m)·Ŵ. The coordinator broadcasts a refreshed Ŵ after every m scalar
// reports. Sites threshold against the Ŵ they last received, not the
// coordinator's live tally, exactly as in the paper.
//
// Guarantee: |f_e(A) − Ŵ_e| ≤ εW (Theorem 1).
// Communication: O((m/ε)·log(βN)) messages — a 1/ε factor better than P1.
//
// The protocol is split into its two halves, P2Site and P2Coordinator,
// joined by the P2Emitter seam; P2 wires them by direct calls, so a
// broadcast refreshes every site's Ŵ before the emitting site continues.
// The node runtime hosts the same halves behind a transport.
type P2 struct {
	m     int
	eps   float64
	acct  *stream.Accountant
	sites []P2Site
	coord *P2Coordinator
}

// P2Emitter is the seam between the halves of heavy-hitters P2: a site
// half calls it only when Algorithm 4.3 fires a message.
type P2Emitter interface {
	// EmitTotal reports W_i, the site's unsent total weight.
	EmitTotal(wi float64)
	// EmitElement reports Δ_e, element e's unsent weight.
	EmitElement(elem uint64, delta float64)
}

// P2Site is the site half of heavy-hitters P2 (Algorithm 4.3): the unsent
// total W_i, the per-element unsent deltas, and the site's own view of Ŵ
// (the last broadcast it received). Not safe for concurrent use.
type P2Site struct {
	m      int
	eps    float64
	emit   P2Emitter
	what   float64 // Ŵ as last received
	weight float64 // W_i: unsent weight
	delta  map[uint64]float64
	// Optional bounded-space summary standing in for the exact delta map
	// (the paper's SpaceSaving reduction); nil means exact. `sent` records
	// what has already been reported per element so the overcounting
	// summary yields unsent deltas.
	ss   *sketch.SpaceSaving
	sent map[uint64]float64
}

// NewP2Site builds the exact-delta site half of m at error ε. It panics on
// invalid parameters (see CheckParams).
func NewP2Site(m int, eps float64, emit P2Emitter) *P2Site {
	validateParams(m, eps)
	s := newP2Site(m, eps, 0, emit)
	return &s
}

// newP2Site builds a site half; ssk > 0 selects a SpaceSaving summary of
// ssk counters instead of the exact delta map.
func newP2Site(m int, eps float64, ssk int, emit P2Emitter) P2Site {
	s := P2Site{m: m, eps: eps, emit: emit, what: 1} // weights ≥ 1: a valid initial lower bound
	if ssk > 0 {
		s.ss = sketch.NewSpaceSaving(ssk)
		s.sent = make(map[uint64]float64)
	} else {
		s.delta = make(map[uint64]float64)
	}
	return s
}

// Estimate returns the Ŵ the site thresholds against.
func (s *P2Site) Estimate() float64 { return s.what }

// SetEstimate applies a Ŵ broadcast. Estimates only grow, so a stale
// (reordered) broadcast is ignored.
func (s *P2Site) SetEstimate(what float64) {
	if what > s.what {
		s.what = what
	}
}

// Process is Algorithm 4.3's step for one arrival of validated weight w.
func (s *P2Site) Process(elem uint64, w float64) {
	thresh := (s.eps / float64(s.m)) * s.what

	s.weight += w
	if s.weight >= thresh {
		// Send (total, W_i).
		s.emit.EmitTotal(s.weight)
		s.weight = 0
		// The broadcast (if any) may have changed the site's Ŵ.
		thresh = (s.eps / float64(s.m)) * s.what
	}

	var de float64
	if s.ss != nil {
		s.ss.Update(elem, w)
		de = s.ss.Estimate(elem) - s.sent[elem]
	} else {
		s.delta[elem] += w
		de = s.delta[elem]
	}
	if de >= thresh {
		// Send (e, Δ_e).
		s.emit.EmitElement(elem, de)
		if s.ss != nil {
			s.sent[elem] += de
		} else {
			delete(s.delta, elem)
		}
	}
}

// P2Coordinator is the coordinator half of heavy-hitters P2 (Algorithm
// 4.4): it sums element reports into the estimate map and scalar reports
// into Ŵ, calling for a broadcast after every m scalar reports. Not safe
// for concurrent use.
type P2Coordinator struct {
	m        int
	what     float64 // running Ŵ
	nmsg     int     // scalar reports since the last broadcast
	estimate map[uint64]float64
}

// NewP2Coordinator builds the coordinator half for m sites.
func NewP2Coordinator(m int) *P2Coordinator {
	return &P2Coordinator{m: m, what: 1, estimate: make(map[uint64]float64)}
}

// AddTotal folds one scalar report into Ŵ and reports whether Ŵ is due for
// broadcast.
func (c *P2Coordinator) AddTotal(wi float64) (broadcast bool) {
	c.what += wi
	c.nmsg++
	if c.nmsg < c.m {
		return false
	}
	c.nmsg = 0
	return true
}

// AddElement folds one element report into the estimate map.
func (c *P2Coordinator) AddElement(elem uint64, delta float64) { c.estimate[elem] += delta }

// Estimate returns Ŵ_e.
func (c *P2Coordinator) Estimate(elem uint64) float64 { return c.estimate[elem] }

// EstimateTotal returns the running Ŵ.
func (c *P2Coordinator) EstimateTotal() float64 { return c.what }

// Candidates returns every reported element, sorted by element.
func (c *P2Coordinator) Candidates() []sketch.WeightedElement {
	out := make([]sketch.WeightedElement, 0, len(c.estimate))
	for e, w := range c.estimate {
		out = append(out, sketch.WeightedElement{Elem: e, Weight: w})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Elem < out[j].Elem })
	return out
}

// HeavyHitters applies the paper's query rule at error ε (see the
// package-level HeavyHitters) to the coordinator's estimates.
func (c *P2Coordinator) HeavyHitters(phi, eps float64) []sketch.WeightedElement {
	return heavyHitters(c.Candidates(), c.what, eps, phi)
}

// p2Direct is P2's emit seam: a site's message goes straight to the
// coordinator half, and a broadcast refreshes every site's Ŵ before the
// emitting site continues.
type p2Direct struct{ p *P2 }

func (w p2Direct) EmitTotal(wi float64) {
	p := w.p
	p.acct.SendUp(1)
	if p.coord.AddTotal(wi) {
		p.acct.Broadcast(1)
		for i := range p.sites {
			p.sites[i].SetEstimate(p.coord.what)
		}
	}
}

func (w p2Direct) EmitElement(elem uint64, delta float64) {
	w.p.acct.SendUp(1)
	w.p.coord.AddElement(elem, delta)
}

// NewP2 builds the protocol for m sites with error parameter ε, using exact
// per-site delta maps (space O(distinct elements per site)).
func NewP2(m int, eps float64) *P2 {
	return newP2(m, eps, 0)
}

// NewP2SpaceSaving builds P2 with each site's delta map replaced by a
// weighted SpaceSaving summary of k counters (k ≤ 0 selects the paper's
// O(m/ε) sizing), the suggested site-space reduction.
func NewP2SpaceSaving(m int, eps float64, k int) *P2 {
	if k < 1 {
		k = int(float64(m)/eps) + 1
	}
	return newP2(m, eps, k)
}

func newP2(m int, eps float64, ssk int) *P2 {
	validateParams(m, eps)
	p := &P2{
		m:     m,
		eps:   eps,
		acct:  stream.NewAccountant(m),
		sites: make([]P2Site, m),
		coord: NewP2Coordinator(m),
	}
	for i := range p.sites {
		p.sites[i] = newP2Site(m, eps, ssk, p2Direct{p})
	}
	return p
}

// Name implements Protocol.
func (p *P2) Name() string { return "P2" }

// Eps implements Protocol.
func (p *P2) Eps() float64 { return p.eps }

// Process implements Protocol (Algorithm 4.3).
func (p *P2) Process(site int, elem uint64, w float64) {
	validateSite(site, p.m)
	validateWeight(w)
	p.sites[site].Process(elem, w)
}

// Estimate implements Protocol.
func (p *P2) Estimate(elem uint64) float64 { return p.coord.Estimate(elem) }

// EstimateTotal implements Protocol: the coordinator's running tally.
func (p *P2) EstimateTotal() float64 { return p.coord.what }

// Candidates implements Protocol.
func (p *P2) Candidates() []sketch.WeightedElement { return p.coord.Candidates() }

// Stats implements Protocol.
func (p *P2) Stats() stream.Stats { return p.acct.Stats() }
