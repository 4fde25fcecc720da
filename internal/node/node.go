// Package node is the deployable runtime for the paper's protocols: a
// transport adapter over the protocol halves that the in-process
// simulators also run — hh.P2Site/hh.P2Coordinator, core.P2Site/
// core.P2Coordinator, and the sample.PrioritySampler behind P3. A node
// adds a mutex, an outbox and a Sender: a site runs its half under its
// lock, the half emits into the outbox, and the outbox is sent once the
// lock is released; a coordinator applies each message to its half and
// sends any due broadcast the same way. Input is checked at this edge
// (row dimension, finite positive ‖row‖², finite positive weights and
// report values) before it reaches a half.
//
// Two transports carry the messages: in-process calls from concurrent
// feeders (the Local*Cluster types) and TCP (CoordinatorServer/SiteClient)
// framed with the internal/wire codec, so a blocked outbox crosses the
// network as one msg-block frame; cmd/distdemo deploys it on loopback.
// The deterministic nodes are checkpointable through gob-encodable
// snapshots (persist.go); a site snapshot embeds the protocol's own.
//
// The protocols tolerate the asynchrony by design: a site thresholds
// against the last estimate it *received*, and the analysis (Sections 4.2
// and 5.2) only needs that estimate to be a lower bound on the true total,
// which remains true under arbitrary message reordering between a site and
// the coordinator on an ordered channel.
package node

import (
	"fmt"
)

// MsgKind discriminates wire messages.
type MsgKind uint8

// Wire message kinds.
const (
	// KindTotal is a site→coordinator scalar: unreported total weight.
	KindTotal MsgKind = iota
	// KindElement is a site→coordinator element report: unreported weight
	// delta for one element.
	KindElement
	// KindRow is a site→coordinator matrix row (a shipped σ·v direction).
	KindRow
	// KindEstimate is a coordinator→site broadcast of the new global
	// estimate (Ŵ or F̂).
	KindEstimate
	// KindHello is the site registration message on connection-oriented
	// transports, carrying the site id.
	KindHello
)

func (k MsgKind) String() string {
	switch k {
	case KindTotal:
		return "total"
	case KindElement:
		return "element"
	case KindRow:
		return "row"
	case KindEstimate:
		return "estimate"
	case KindHello:
		return "hello"
	default:
		return fmt.Sprintf("MsgKind(%d)", uint8(k))
	}
}

// Message is the single wire format shared by both protocols. Exported
// fields only, so encoding/gob handles it directly.
type Message struct {
	Kind  MsgKind
	Site  int
	Elem  uint64    // KindElement: the element label
	Value float64   // KindTotal/KindElement: weight; KindEstimate: Ŵ or F̂
	Vec   []float64 // KindRow: the row payload
}

// Sender delivers a message to the other end of a link. Implementations
// must be safe for concurrent use.
type Sender interface {
	Send(Message) error
}

// SenderFunc adapts a function to Sender.
type SenderFunc func(Message) error

// Send implements Sender.
func (f SenderFunc) Send(m Message) error { return f(m) }

// BatchSender is a Sender that can deliver a whole outbox in one call —
// the receiving end amortizes its locking across the batch. The blocked
// site paths probe for it; plain Senders get the messages one at a time.
type BatchSender interface {
	Sender
	SendAll(ms []Message) error
}

// sendAll delivers an outbox through out's batch path when it has one.
func sendAll(out Sender, ms []Message) error {
	if bs, ok := out.(BatchSender); ok {
		return bs.SendAll(ms)
	}
	for _, m := range ms {
		if err := out.Send(m); err != nil {
			return err
		}
	}
	return nil
}
