package node

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/matrix"
)

// MatSite hosts the site half of matrix P2 (core.P2Site, Algorithm 5.3)
// for concurrent callers: the rule runs under the site lock, emits into
// the outbox, and the outbox is sent through the Sender after the lock is
// released.
type MatSite struct {
	site
	m, d int
	eps  float64
	fast bool // blocked fast ingest (see core.IngestFast); exact otherwise
	half *core.P2Site
}

// NewMatSite builds site id of m at error ε for d-dimensional rows.
func NewMatSite(id, m int, eps float64, d int, out Sender) (*MatSite, error) {
	if err := core.CheckParams(m, eps, d); err != nil {
		return nil, err
	}
	if err := checkSite(id, m, out); err != nil {
		return nil, err
	}
	s := &MatSite{site: site{out: out, box: outbox{site: id}}, m: m, d: d, eps: eps}
	s.half = core.NewP2Site(m, eps, d, &s.box)
	s.est = s.half
	return s, nil
}

// NewMatSiteFast builds the site in the blocked fast ingest mode: HandleRows
// folds whole blocks into the Gram with one rank-k update and runs the
// eigendecomposition once per crossing block, and the steady-state
// (no-message) block path allocates nothing. The scalar F̂ threshold is
// still evaluated at every row index, but a block's crossings coalesce
// into one summed report, and row-ship messages may coalesce at block
// boundaries (see core.IngestFast).
func NewMatSiteFast(id, m int, eps float64, d int, out Sender) (*MatSite, error) {
	s, err := NewMatSite(id, m, eps, d, out)
	if err != nil {
		return nil, err
	}
	s.fast = true
	return s, nil
}

// HandleRow processes one matrix row arriving at this site. The row must
// have the site's dimension and a finite, positive squared norm.
func (s *MatSite) HandleRow(row []float64) error {
	if err := core.CheckRow(row, s.d); err != nil {
		return err
	}
	s.mu.Lock()
	return s.flushLocked(s.half.ProcessRow(row))
}

// HandleRows processes a batch of rows arriving at this site: the blocked
// ingest entry point. The whole batch is validated up front, so a bad row
// fails the call before any row is ingested. In exact mode the site lock
// is held across runs of rows that trigger no messages (the common case)
// and released to flush the outbox at exactly the rows where the per-row
// path would send, so under the synchronous in-process wiring the message
// sequence is identical to calling HandleRow once per row. In fast mode
// the block folds in one step and the outbox is flushed once.
func (s *MatSite) HandleRows(rows [][]float64) error {
	for i, row := range rows {
		if err := core.CheckRow(row, s.d); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
	}
	if s.fast {
		s.mu.Lock()
		return s.flushLocked(s.half.ProcessBlock(rows))
	}
	for i := 0; i < len(rows); {
		s.mu.Lock()
		var err error
		for i < len(rows) && len(s.box.msgs) == 0 && err == nil {
			err = s.half.ProcessRow(rows[i])
			i++
		}
		if err := s.flushLocked(err); err != nil {
			return err
		}
	}
	return nil
}

// MatCoordinator hosts the coordinator half of matrix P2
// (core.P2Coordinator, Algorithm 5.4): it accumulates shipped σ·v rows
// into the approximation's Gram matrix and broadcasts a refreshed F̂ after
// every m scalar reports. Thread-safe; no lock is held across broadcast
// sends.
type MatCoordinator struct {
	hub
	m, d  int
	eps   float64
	coord *core.P2Coordinator
}

// NewMatCoordinator builds the coordinator for m sites at error ε and row
// dimension d. broadcast delivers one message to every site.
func NewMatCoordinator(m int, eps float64, d int, broadcast Sender) (*MatCoordinator, error) {
	if err := core.CheckParams(m, eps, d); err != nil {
		return nil, err
	}
	if broadcast == nil {
		return nil, errNilBroadcast
	}
	c := &MatCoordinator{hub: hub{broadcast: broadcast}, m: m, d: d, eps: eps, coord: core.NewP2Coordinator(m, d)}
	c.apply = c.applyLocked
	return c, nil
}

// applyLocked validates one site message and feeds it to the coordinator
// half.
func (c *MatCoordinator) applyLocked(m Message) (bool, float64, error) {
	switch m.Kind {
	case KindTotal:
		if err := checkReport(m.Value); err != nil {
			return false, 0, err
		}
		return c.coord.AddTotal(m.Value), c.coord.EstimateFrobenius(), nil
	case KindRow:
		if err := core.CheckRow(m.Vec, c.d); err != nil {
			return false, 0, err
		}
		c.coord.AddRow(m.Vec)
		return false, 0, nil
	}
	return false, 0, fmt.Errorf("node: coordinator received %v message", m.Kind)
}

// Gram returns a copy of the coordinator's BᵀB approximation.
func (c *MatCoordinator) Gram() *matrix.Sym {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.coord.Gram().Clone()
}

// EstimateFrobenius returns the running F̂.
func (c *MatCoordinator) EstimateFrobenius() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.coord.EstimateFrobenius()
}
