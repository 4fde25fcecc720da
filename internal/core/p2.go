package core

import (
	"fmt"
	"math"

	"repro/internal/matrix"
	"repro/internal/stream"
)

// P2 is the deterministic SVD-threshold protocol of Section 5.2
// (Algorithms 5.3/5.4), the paper's headline result. Site j accumulates its
// unsent rows in B_j and, whenever some direction's squared norm
// ‖B_j v_ℓ‖² = σ_ℓ² reaches (ε/m)·F̂, ships the scaled singular vector
// σ_ℓ·v_ℓ to the coordinator and removes that direction from B_j. A scalar
// side-channel maintains F̂ ≈ ‖A‖²_F exactly as in heavy-hitters P2.
//
// Guarantee (Theorem 4): 0 ≤ ‖Ax‖² − ‖Bx‖² ≤ ε‖A‖²_F at all times.
// Communication: O((m/ε)·log(βN)) messages.
//
// The protocol is split into its two halves, P2Site and P2Coordinator,
// joined by the P2Emitter seam; P2 wires them by direct calls, so a
// broadcast refreshes every site's F̂ before the emitting site continues.
// The node runtime hosts the same halves behind a transport.
//
// Implementation notes. B_j is carried as its Gram matrix G_j = B_jᵀB_j
// (O(d²) space): appending a row is a rank-1 update, the singular pairs of
// B_j are the eigenpairs of G_j, and deleting a direction zeroes its
// eigenvalue — all exact. The svd is run in batch mode, as licensed by the
// paper: after a full decomposition with top eigenvalue λ₁, no direction
// can reach λ₁ + (new mass) until that much Frobenius mass arrives, so the
// site defers the next decomposition until λ₁ + newMass ≥ (ε/m)·F̂ — an
// exact bound, never a heuristic. To avoid re-decomposing every row when λ₁
// sits just under the threshold, a decomposition ships every direction with
// σ_ℓ² ≥ (ε/2m)·F̂; shipping more directions than strictly required never
// hurts the error guarantee and at most doubles the message count.
type P2 struct {
	rule  p2Rule
	acct  *stream.Accountant
	mode  IngestMode // ProcessRows arithmetic (see IngestMode)
	sites []P2Site
	coord *P2Coordinator
}

// p2Rule is what every site of one tracker shares: the protocol
// parameters and the decomposition scratch, so the scratch is per tracker,
// not per site. Sites sharing a rule must not run concurrently.
type p2Rule struct {
	m, d int
	eps  float64
	// shipFrac is the fraction of the (ε/m)·F̂ limit at which a
	// decomposition ships a direction. 0.5 (default) halves the
	// decomposition count at the price of ≤ 2× messages; 1.0 ships only
	// what Theorem 4 strictly requires. Exposed for the ablation study.
	shipFrac float64
	decomps  int64 // total eigendecompositions across sites (observability)

	// Reusable scratch shared by the decomposition step and the fast block
	// path; sized on first use, so the steady-state ingest path allocates
	// nothing.
	eigWS   *matrix.EigWorkspace
	shipRow []float64     // σ·v staging for shipped directions
	wbuf    []float64     // per-block row norms
	pack    *matrix.Dense // column-major packing for Sym.AddBlock
}

// limit is the (ε/m)·F̂ threshold of Algorithm 5.3.
func (r *p2Rule) limit(fhat float64) float64 { return (r.eps / float64(r.m)) * fhat }

// P2Emitter is the seam between the halves of matrix P2: a site half calls
// it only when Algorithm 5.3 fires a message.
type P2Emitter interface {
	// EmitTotal reports F_j, the site's unsent Frobenius mass.
	EmitTotal(fj float64)
	// EmitRow ships one direction σ·v. row is the site's scratch, valid
	// only during the call.
	EmitRow(row []float64)
}

// P2Site is the site half of matrix P2 (Algorithm 5.3): the unsent rows
// B_j as G_j = B_jᵀB_j, the scalar mass F_j, the exact deferred-svd bound,
// and the site's own view of F̂ (the last broadcast it received). Not safe
// for concurrent use.
type P2Site struct {
	rule     *p2Rule
	emit     P2Emitter
	fhat     float64     // F̂ as last received
	gram     *matrix.Sym // G_j = B_jᵀB_j of unsent rows
	fdelta   float64     // F_j: unsent scalar mass for the F̂ side-channel
	lamBound float64     // λ₁ at the last decomposition + mass added since
	// Degenerate-regime shortcut: when the unsent matrix is exactly one
	// row (common at very small ε, where the protocol approaches
	// send-everything), its SVD is that row itself and no eigendecomposition
	// is needed.
	soleRow []float64
	empty   bool // gram is exactly zero
}

func newP2Site(rule *p2Rule, emit P2Emitter) P2Site {
	return P2Site{rule: rule, emit: emit, fhat: 1, gram: matrix.NewSym(rule.d), empty: true}
}

// NewP2Site builds a standalone site half of m at error ε for
// d-dimensional rows, with its own scratch and the default ship fraction.
// It panics on invalid parameters (see CheckParams).
func NewP2Site(m int, eps float64, d int, emit P2Emitter) *P2Site {
	validateParams(m, eps, d)
	s := newP2Site(&p2Rule{m: m, d: d, eps: eps, shipFrac: 0.5}, emit)
	return &s
}

// Estimate returns the F̂ the site thresholds against.
func (s *P2Site) Estimate() float64 { return s.fhat }

// SetEstimate applies an F̂ broadcast. Estimates only grow, so a stale
// (reordered) broadcast is ignored.
func (s *P2Site) SetEstimate(fhat float64) {
	if fhat > s.fhat {
		s.fhat = fhat
	}
}

// ProcessRow is the per-row step of Algorithm 5.3 on a validated row. It
// fails only if the eigensolver does.
//
//distlint:hotpath
func (s *P2Site) ProcessRow(row []float64) error {
	w := matrix.NormSq(row)
	s.addMass(w)

	// Row accumulation with the exact deferred-svd bound.
	s.gram.AddOuter(1, row)
	s.lamBound += w
	if s.empty {
		s.soleRow = append(s.soleRow[:0], row...) //distlint:alloc-ok grows to one row length once, then reused
		s.empty = false
	} else {
		s.soleRow = nil
	}
	return s.ship()
}

// addMass is the scalar side-channel for F̂: one row's mass joins F_j,
// which is reported once it reaches the limit.
//
//distlint:hotpath
func (s *P2Site) addMass(w float64) {
	s.fdelta += w
	if s.fdelta >= s.rule.limit(s.fhat) {
		s.emit.EmitTotal(s.fdelta)
		s.fdelta = 0
	}
}

// ProcessBlock is the fast-mode batch step of Algorithm 5.3 on validated
// rows: the scalar F̂ side-channel still fires at its exact row indices (it
// reads only the running mass, never the Gram), but the rows fold into the
// site Gram as one rank-k block update and the deferred-svd bound
// λ₁ + newMass is settled once over the whole block — one decomposition
// per crossing block instead of one per crossing row.
//
//distlint:hotpath
func (s *P2Site) ProcessBlock(rows [][]float64) error {
	if len(rows) == 0 {
		return nil
	}
	r := s.rule
	r.wbuf = matrix.NormSqRows(rows, r.wbuf)

	// Scalar side-channel at exact per-row indices.
	var mass float64
	for _, w := range r.wbuf {
		mass += w
		s.addMass(w)
	}

	// One block update; the exact deferral bound accrues the block's mass.
	if r.pack == nil {
		r.pack = matrix.NewDense(0, 0)
	}
	s.gram.AddBlock(rows, r.pack)
	s.lamBound += mass
	if s.empty && len(rows) == 1 {
		s.soleRow = append(s.soleRow[:0], rows[0]...) //distlint:alloc-ok grows to one row length once, then reused
	} else {
		s.soleRow = nil
	}
	s.empty = false
	return s.ship()
}

// ship runs the svd step once the deferral bound reaches the limit.
func (s *P2Site) ship() error {
	if s.lamBound < s.rule.limit(s.fhat) {
		return nil
	}
	if s.soleRow == nil {
		return s.decomposeAndSend()
	}
	// B_j is the single row a: svd(B_j) = (‖a‖, a/‖a‖), so the shipped σ·v
	// is the row itself.
	s.emit.EmitRow(s.soleRow)
	s.gram.Reset()
	s.lamBound = 0
	s.soleRow = nil
	s.empty = true
	return nil
}

// decomposeAndSend runs the svd step of Algorithm 5.3: every direction
// with σ² ≥ shipFrac·(ε/m)·F̂ is shipped as the row σ·v and zeroed. All
// scratch — the eigensolver workspace, the shipped-row staging, the
// reconstruction column — is per rule and reused, so the steady-state path
// allocates nothing; reusing fully-overwritten buffers leaves the values
// bit-identical to the allocating path, keeping exact mode exact.
func (s *P2Site) decomposeAndSend() error {
	r := s.rule
	r.decomps++
	if r.eigWS == nil {
		r.eigWS = matrix.NewEigWorkspace()
	}
	vals, vecs, err := matrix.EigSymWork(s.gram, r.eigWS)
	if err != nil {
		vals, vecs, err = matrix.JacobiEigSym(s.gram)
		if err != nil {
			return fmt.Errorf("core: P2 eigendecomposition failed: %w", err)
		}
	}
	shipThresh := r.shipFrac * (r.eps / float64(r.m)) * s.fhat
	sent := false
	if r.shipRow == nil {
		r.shipRow = make([]float64, r.d)
	}
	row := r.shipRow
	for k, lam := range vals {
		if lam < shipThresh {
			break // sorted descending
		}
		sigma := math.Sqrt(lam)
		for i := 0; i < r.d; i++ {
			row[i] = sigma * vecs.At(i, k)
		}
		s.emit.EmitRow(row) // one row-sized vector message
		vals[k] = 0
		sent = true
	}
	top := 0.0
	for _, lam := range vals {
		if lam > top {
			top = lam
		}
	}
	if sent {
		// vecs and vals live in the eigensolver workspace, so rebuilding the
		// site Gram in place is safe.
		matrix.ReconstructIntoWork(s.gram, vecs, vals, row)
		if top <= 0 {
			s.empty = true
			s.soleRow = nil
		}
	}
	// Exact deferral bound for the next decomposition: the remaining top
	// eigenvalue plus future mass.
	s.lamBound = top
	return nil
}

// P2Coordinator is the coordinator half of matrix P2 (Algorithm 5.4): it
// folds shipped σ·v rows into BᵀB and scalar reports into F̂, calling for
// a broadcast after every m scalar reports. Not safe for concurrent use.
type P2Coordinator struct {
	m    int
	gram *matrix.Sym // BᵀB from received σv rows
	fhat float64     // running F̂
	nmsg int         // scalar reports since the last broadcast
}

// NewP2Coordinator builds the coordinator half for m sites and dimension d.
func NewP2Coordinator(m, d int) *P2Coordinator {
	return &P2Coordinator{m: m, gram: matrix.NewSym(d), fhat: 1}
}

// RestoreP2Coordinator rebuilds a coordinator half from the values its
// Snapshot returned.
func RestoreP2Coordinator(m, d int, gram []float64, fhat float64, nmsg int) (*P2Coordinator, error) {
	if len(gram) != d*d {
		return nil, fmt.Errorf("core: snapshot Gram has %d values for d=%d", len(gram), d)
	}
	// Bit-exact adoption: later updates must see exactly the saved matrix.
	return &P2Coordinator{m: m, gram: matrix.SymFromRaw(d, gram), fhat: fhat, nmsg: nmsg}, nil
}

// Snapshot returns copies of the coordinator state: BᵀB row-major, F̂,
// and the scalar reports since the last broadcast.
func (c *P2Coordinator) Snapshot() (gram []float64, fhat float64, nmsg int) {
	return c.gram.RawData(), c.fhat, c.nmsg
}

// AddTotal folds one scalar report into F̂ and reports whether F̂ is due
// for broadcast.
func (c *P2Coordinator) AddTotal(fj float64) (broadcast bool) {
	c.fhat += fj
	c.nmsg++
	if c.nmsg < c.m {
		return false
	}
	c.nmsg = 0
	return true
}

// AddRow folds one shipped direction into BᵀB.
func (c *P2Coordinator) AddRow(row []float64) { c.gram.AddOuter(1, row) }

// Gram returns the live BᵀB estimate; callers must not modify it.
func (c *P2Coordinator) Gram() *matrix.Sym { return c.gram }

// EstimateFrobenius returns the running F̂.
func (c *P2Coordinator) EstimateFrobenius() float64 { return c.fhat }

// p2Direct is P2's emit seam: a site's message goes straight to the
// coordinator half, and a broadcast refreshes every site's F̂ before the
// emitting site continues.
type p2Direct struct{ p *P2 }

func (w p2Direct) EmitTotal(fj float64) {
	p := w.p
	p.acct.SendUp(1)
	if p.coord.AddTotal(fj) {
		p.acct.Broadcast(1)
		for i := range p.sites {
			p.sites[i].SetEstimate(p.coord.fhat)
		}
	}
}

func (w p2Direct) EmitRow(row []float64) {
	w.p.acct.SendUp(1)
	w.p.coord.AddRow(row)
}

// NewP2 builds the protocol for m sites, error ε, dimension d, in the
// byte-identical exact ingest mode.
func NewP2(m int, eps float64, d int) *P2 {
	return NewP2ShipFraction(m, eps, d, 0.5)
}

// NewP2Fast builds the protocol in the blocked fast ingest mode: ProcessRows
// folds whole blocks into the site Gram with one rank-k update and runs
// decompositions per block instead of per row (see IngestFast for the
// documented relaxations).
func NewP2Fast(m int, eps float64, d int) *P2 {
	p := NewP2(m, eps, d)
	p.mode = IngestFast
	return p
}

// Mode returns the tracker's ingest mode.
func (p *P2) Mode() IngestMode { return p.mode }

// NewP2ShipFraction builds P2 with an explicit ship fraction in (0, 1]
// (see p2Rule.shipFrac); used by the ablation benchmarks.
func NewP2ShipFraction(m int, eps float64, d int, shipFrac float64) *P2 {
	validateParams(m, eps, d)
	if shipFrac <= 0 || shipFrac > 1 {
		panic(fmt.Sprintf("core: need 0 < shipFrac ≤ 1, got %v", shipFrac))
	}
	p := &P2{
		rule:  p2Rule{m: m, d: d, eps: eps, shipFrac: shipFrac},
		acct:  stream.NewAccountant(m),
		sites: make([]P2Site, m),
		coord: NewP2Coordinator(m, d),
	}
	for i := range p.sites {
		p.sites[i] = newP2Site(&p.rule, p2Direct{p})
	}
	return p
}

// Name implements Tracker.
func (p *P2) Name() string { return "P2" }

// Dim implements Tracker.
func (p *P2) Dim() int { return p.rule.d }

// Eps implements Tracker.
func (p *P2) Eps() float64 { return p.rule.eps }

// ProcessRow implements Tracker (Algorithm 5.3).
func (p *P2) ProcessRow(site int, row []float64) {
	validateSite(site, p.rule.m)
	validateRow(row, p.rule.d)
	mustShip(p.sites[site].ProcessRow(row))
}

// ProcessRows implements BatchTracker. In exact mode it is the per-row
// state machine minus the per-call validation: every threshold check runs
// at its exact row index and the message tallies match row-at-a-time
// ingestion bit for bit. In fast mode the block folds through
// P2Site.ProcessBlock.
//
//distlint:hotpath
func (p *P2) ProcessRows(site int, rows [][]float64) {
	validateSite(site, p.rule.m)
	validateRows(rows, p.rule.d)
	s := &p.sites[site]
	if p.mode == IngestFast {
		mustShip(s.ProcessBlock(rows))
		return
	}
	for _, row := range rows {
		mustShip(s.ProcessRow(row))
	}
}

// mustShip panics on an eigensolver failure, which only non-finite input
// can cause; the facade refuses such rows before they reach a tracker.
func mustShip(err error) {
	if err != nil {
		panic(err.Error())
	}
}

// Gram implements Tracker.
func (p *P2) Gram() *matrix.Sym { return p.coord.gram.Clone() }

// Sites implements SiteCounter.
func (p *P2) Sites() int { return p.rule.m }

// AccumulateGram implements GramAccumulator: the coordinator estimate folds
// into dst without allocating.
func (p *P2) AccumulateGram(dst *matrix.Sym, w float64) { dst.AddScaledSym(w, p.coord.gram) }

// EstimateFrobenius implements Tracker.
func (p *P2) EstimateFrobenius() float64 { return p.coord.fhat }

// Stats implements Tracker.
func (p *P2) Stats() stream.Stats { return p.acct.Stats() }

// Decompositions returns the number of site eigendecompositions performed,
// the protocol's dominant computational cost.
func (p *P2) Decompositions() int64 { return p.rule.decomps }
