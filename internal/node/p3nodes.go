package node

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/sample"
)

// The sampling protocol (P3) halves. Sites are nearly stateless — they hold
// only the current threshold τ and an RNG — which makes P3 the easiest
// protocol to operate: site restarts lose nothing but their RNG position.
// The coordinator maintains the priority sample. Both halves reuse the wire
// Message: a forwarded row travels as KindRow with Value carrying the
// priority ρ (the weight is recomputed from the payload), and threshold
// broadcasts travel as KindEstimate.

// P3Site is the site half of matrix P3 (Algorithm 4.5 with rows).
type P3Site struct {
	site
	d   int
	tau threshold
	rng *rand.Rand
}

// threshold is a P3 site's estimate: the round threshold τ, raised by
// broadcasts.
type threshold float64

func (t *threshold) Estimate() float64 { return float64(*t) }

func (t *threshold) SetEstimate(v float64) {
	if v > float64(*t) {
		*t = threshold(v)
	}
}

// NewP3Site builds site id for d-dimensional rows with its own RNG seed.
func NewP3Site(id, d int, seed int64, out Sender) (*P3Site, error) {
	if id < 0 {
		return nil, fmt.Errorf("node: negative site id %d", id)
	}
	if d < 1 {
		return nil, fmt.Errorf("node: need d ≥ 1, got %d", d)
	}
	if out == nil {
		return nil, fmt.Errorf("node: nil sender")
	}
	s := &P3Site{site: site{out: out, box: outbox{site: id}}, d: d, tau: 1, rng: rand.New(rand.NewSource(seed))}
	s.est = &s.tau
	return s, nil
}

// HandleRow processes one row arrival: draw a priority and forward the row
// iff it passes the threshold.
func (s *P3Site) HandleRow(row []float64) error {
	if err := core.CheckRow(row, s.d); err != nil {
		return err
	}
	s.mu.Lock()
	if rho := sample.Priority(matrix.NormSq(row), s.rng); rho >= float64(s.tau) {
		s.box.msgs = append(s.box.msgs, Message{Kind: KindRow, Site: s.ID(), Value: rho, Vec: append([]float64(nil), row...)})
	}
	return s.flushLocked(nil)
}

// P3Coordinator is the coordinator half of matrix P3: a priority sampler
// over forwarded rows, doubling the threshold when the high bucket fills.
type P3Coordinator struct {
	hub
	d       int
	sampler *sample.PrioritySampler
}

// NewP3Coordinator builds the coordinator with target sample size s for
// d-dimensional rows.
func NewP3Coordinator(d, s int, broadcast Sender) (*P3Coordinator, error) {
	if d < 1 {
		return nil, fmt.Errorf("node: need d ≥ 1, got %d", d)
	}
	if s < 1 {
		return nil, fmt.Errorf("node: need sample size ≥ 1, got %d", s)
	}
	if broadcast == nil {
		return nil, errNilBroadcast
	}
	c := &P3Coordinator{hub: hub{broadcast: broadcast}, d: d, sampler: sample.NewPrioritySampler(s)}
	c.apply = c.applyLocked
	return c, nil
}

// applyLocked offers one forwarded row to the sampler; a new round
// broadcasts the raised threshold.
func (c *P3Coordinator) applyLocked(m Message) (bool, float64, error) {
	if m.Kind != KindRow {
		return false, 0, fmt.Errorf("node: P3 coordinator received %v message", m.Kind)
	}
	if len(m.Vec) != c.d {
		return false, 0, fmt.Errorf("node: row of length %d, want %d", len(m.Vec), c.d)
	}
	newRound := c.sampler.Offer(sample.Prioritized{
		Weight:   matrix.NormSq(m.Vec),
		Priority: m.Value,
		Payload:  m.Vec,
	})
	return newRound, c.sampler.Threshold(), nil
}

// Gram returns the coordinator's current BᵀB estimate from the sample,
// with the without-replacement reweighting of Section 5.3.
func (c *P3Coordinator) Gram() *matrix.Sym {
	c.mu.Lock()
	items, _ := c.sampler.Sample()
	c.mu.Unlock()
	g := matrix.NewSym(c.d)
	for _, e := range items {
		orig := matrix.NormSq(e.Payload)
		if orig <= 0 {
			continue
		}
		g.AddOuter(e.Weight/orig, e.Payload)
	}
	return g
}

// EstimateFrobenius returns the sample's unbiased ‖A‖²_F estimate.
func (c *P3Coordinator) EstimateFrobenius() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sampler.EstimateTotal()
}

// Threshold returns the current round threshold.
func (c *P3Coordinator) Threshold() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sampler.Threshold()
}

// LocalP3Cluster wires P3 sites directly to a P3 coordinator in-process.
type LocalP3Cluster struct {
	Coordinator *P3Coordinator
	Sites       []*P3Site
}

// NewLocalP3Cluster builds the in-process deployment of matrix P3 with the
// paper's sample size for ε.
func NewLocalP3Cluster(m int, eps float64, d int, seed int64) (*LocalP3Cluster, error) {
	if err := core.CheckParams(m, eps, d); err != nil {
		return nil, err
	}
	fo := &fanout{}
	coord, err := NewP3Coordinator(d, sample.RecommendedSampleSize(eps), fo)
	if err != nil {
		return nil, err
	}
	cl := &LocalP3Cluster{Coordinator: coord}
	for i := 0; i < m; i++ {
		site, err := NewP3Site(i, d, seed+int64(i)*104729, SenderFunc(coord.Handle))
		if err != nil {
			return nil, err
		}
		cl.Sites = append(cl.Sites, site)
		fo.sites = append(fo.sites, site)
	}
	return cl, nil
}

// Feed delivers one row to a site.
func (c *LocalP3Cluster) Feed(site int, row []float64) error {
	if site < 0 || site >= len(c.Sites) {
		return fmt.Errorf("node: site %d out of range [0,%d)", site, len(c.Sites))
	}
	return c.Sites[site].HandleRow(row)
}
