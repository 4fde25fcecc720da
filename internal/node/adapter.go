package node

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// outbox is the emit seam of a site half hosted by this runtime: it queues
// the messages the protocol rule fires while the site lock is held, to be
// sent once the lock is released. Consecutive scalar reports merge into
// one: the coordinator sums report values, so its estimate is unchanged,
// and a fast-mode block — which scans a frozen F̂ and can cross the
// threshold on row after row — sends one report instead of one per row.
type outbox struct {
	site int
	msgs []Message
}

// EmitTotal implements core.P2Emitter and hh.P2Emitter.
func (o *outbox) EmitTotal(v float64) {
	if n := len(o.msgs); n > 0 && o.msgs[n-1].Kind == KindTotal {
		o.msgs[n-1].Value += v
		return
	}
	o.msgs = append(o.msgs, Message{Kind: KindTotal, Site: o.site, Value: v})
}

// EmitRow implements core.P2Emitter; the row is copied, since the rule
// reuses its scratch.
func (o *outbox) EmitRow(row []float64) {
	o.msgs = append(o.msgs, Message{Kind: KindRow, Site: o.site, Vec: append([]float64(nil), row...)})
}

// EmitElement implements hh.P2Emitter.
func (o *outbox) EmitElement(elem uint64, delta float64) {
	o.msgs = append(o.msgs, Message{Kind: KindElement, Site: o.site, Elem: elem, Value: delta})
}

// estimator is what a site half exposes to broadcasts: the estimate it
// thresholds against (F̂ or Ŵ).
type estimator interface {
	Estimate() float64
	SetEstimate(float64)
}

// site is the transport half every site node shares: the lock around the
// protocol's site half, the outbox it emits into, and the Sender the
// outbox drains to. No lock is held across a Send, so transports may
// deliver synchronously (a direct call into the coordinator) without
// deadlock, and lock order between site and coordinator never cycles.
type site struct {
	out  Sender
	mu   sync.Mutex
	est  estimator // the protocol's site half
	box  outbox
	sent int64 // messages emitted (observability)
}

// checkSite validates a site node's id and sender.
func checkSite(id, m int, out Sender) error {
	if id < 0 || id >= m {
		return fmt.Errorf("node: site id %d out of range [0,%d)", id, m)
	}
	if out == nil {
		return fmt.Errorf("node: nil sender")
	}
	return nil
}

// ID returns the site id.
func (s *site) ID() int { return s.box.site }

// flushLocked detaches the queued messages, releases s.mu, and sends them.
// procErr, the protocol step's own error, takes precedence.
//
// Before the lock is released, the site counts its own scalar reports into
// its estimate. The last broadcast plus the site's reports since is still
// a lower bound on the coordinator's estimate, so the guarantee holds; and
// a site that outruns its broadcast link (a busy feeder, a slow network)
// does not go on reporting on every row against a stale estimate. A
// broadcast that already counts the reports arrives through SetEstimate,
// which keeps the larger value.
func (s *site) flushLocked(procErr error) error {
	msgs := s.box.msgs
	s.box.msgs = nil
	s.sent += int64(len(msgs))
	for _, m := range msgs {
		if m.Kind == KindTotal {
			s.est.SetEstimate(s.est.Estimate() + m.Value)
		}
	}
	s.mu.Unlock()
	if len(msgs) == 0 {
		return procErr
	}
	err := sendAll(s.out, msgs)
	if procErr != nil {
		return procErr
	}
	return err
}

// HandleBroadcast applies a coordinator estimate broadcast. Estimates are
// monotone, so a stale (reordered) broadcast is ignored.
func (s *site) HandleBroadcast(m Message) error {
	if m.Kind != KindEstimate {
		return fmt.Errorf("node: site received %v message", m.Kind)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.est.SetEstimate(m.Value)
	return nil
}

// Estimate returns the estimate (F̂ or Ŵ) the site last received.
func (s *site) Estimate() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.est.Estimate()
}

// Sent returns how many messages this site has emitted.
func (s *site) Sent() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sent
}

// hub is the transport half every coordinator node shares: the lock, the
// traffic counters, the broadcast history, and the delivery loop. apply
// runs the protocol's coordinator half on one message with mu held and
// reports the estimate to broadcast, if one is due.
type hub struct {
	broadcast Sender
	apply     func(Message) (bcast bool, est float64, err error)

	mu       sync.Mutex
	received int64
	bcasts   int64
	history  []float64 // every broadcast estimate, oldest first
}

// handleLocked applies one message with h.mu held, reporting the estimate
// to broadcast once the lock is released, if one is due.
func (h *hub) handleLocked(m Message) (bcast bool, est float64, err error) {
	if bcast, est, err = h.apply(m); err != nil {
		return false, 0, err
	}
	h.received++
	if bcast {
		h.bcasts++
		h.history = append(h.history, est)
	}
	return bcast, est, nil
}

// Handle processes one site message.
func (h *hub) Handle(m Message) error {
	h.mu.Lock()
	bcast, est, err := h.handleLocked(m)
	h.mu.Unlock()
	if err != nil || !bcast {
		return err
	}
	return h.broadcast.Send(Message{Kind: KindEstimate, Value: est})
}

// HandleAll processes a batch of site messages: the coordinator half of
// the blocked ingest path. The lock is held across runs of messages that
// trigger no broadcast, and released to send at exactly the messages where
// per-message handling would broadcast, so the broadcast sequence is
// identical to calling Handle once per message. A bad message stops the
// batch at its index; the preceding messages remain applied.
func (h *hub) HandleAll(ms []Message) error {
	for i := 0; i < len(ms); {
		h.mu.Lock()
		bcast, est := false, 0.0
		for ; i < len(ms) && !bcast; i++ {
			var err error
			if bcast, est, err = h.handleLocked(ms[i]); err != nil {
				h.mu.Unlock()
				return fmt.Errorf("message %d: %w", i, err)
			}
		}
		h.mu.Unlock()
		if bcast {
			if err := h.broadcast.Send(Message{Kind: KindEstimate, Value: est}); err != nil {
				return err
			}
		}
	}
	return nil
}

// Received returns the number of site messages processed.
func (h *hub) Received() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.received
}

// Broadcasts returns the number of estimate broadcasts issued.
func (h *hub) Broadcasts() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.bcasts
}

// EstimateHistory returns every broadcast estimate in order, its growth
// trajectory (one entry per broadcast, so O((1/ε)·log W) entries).
func (h *hub) EstimateHistory() []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]float64(nil), h.history...)
}

var errNilBroadcast = errors.New("node: nil broadcast sender")

// checkReport validates the value of a site report arriving from a
// (possibly remote) site: finite and positive, like every mass it sums.
func checkReport(v float64) error {
	if !(v > 0) || math.IsInf(v, 1) {
		return fmt.Errorf("node: need a finite positive report value, got %v", v)
	}
	return nil
}
