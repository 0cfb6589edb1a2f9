// Package net models the simulated machine's interconnect.
//
// The paper's CM-5 results are shaped by its fat-tree network: LCM wins
// because it moves fewer and cheaper messages than Stache plus explicit
// copying.  This package gives every protocol message an explicit route,
// latency, and link/NI occupancy so that traffic reduction can translate
// into the latency advantage the paper measures.
//
// Two models are provided:
//
//   - Uniform charges each message class exactly the flat price of the
//     cost.Model it is built from.  It reproduces the pre-net simulator
//     bit-for-bit (counters and virtual cycles) and is the default.
//   - FatTree routes messages over a CM-5-style 4-ary fat tree with
//     per-hop latency, per-byte serialization, and per-channel and
//     per-NI queueing in virtual time.  Queueing makes it sensitive to
//     contention and to the interleaving; under the deterministic
//     scheduler (the workloads default) its totals replay
//     bit-identically, but its different pricing selects a different
//     schedule than the uniform model's, so order-dependent observables
//     legitimately differ between the two.  It is an analysis mode, not
//     a goldens mode.
//
// Both models account messages, bytes, and queueing cycles into the
// calling node's net.Counters, which internal/stats embeds per node.
package net

import (
	"fmt"

	"lcm/internal/cost"
)

// Kind classifies protocol messages for accounting.
type Kind int

const (
	// MsgMissRequest is a blocking block-fetch request to a home node.
	MsgMissRequest Kind = iota
	// MsgDataReply is a data-carrying reply to a miss request.
	MsgDataReply
	// MsgForward is a home-to-dirty-owner forward (three-hop miss).
	MsgForward
	// MsgUpgrade is a no-data permission upgrade request or ack.
	MsgUpgrade
	// MsgInvalidate is a copy-invalidation directive.
	MsgInvalidate
	// MsgFlush is a fire-and-forget modified-block writeback.
	MsgFlush
	// MsgBarrier is a barrier packet on the control network.
	MsgBarrier

	// NumKinds is the number of message kinds.
	NumKinds
)

var kindNames = [NumKinds]string{
	"miss_request", "data_reply", "forward", "upgrade",
	"invalidate", "flush", "barrier",
}

// String returns the snake_case kind name used in JSON/CSV output.
func (k Kind) String() string {
	if k < 0 || k >= NumKinds {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// Counters is the per-node network accounting record.  Like the rest of
// stats.NodeCounters it is updated only by the owning node's goroutine.
type Counters struct {
	// Msgs counts messages this node injected, by kind.
	Msgs [NumKinds]int64
	// Bytes counts header plus payload bytes this node injected.
	Bytes int64
	// QueueCycles counts virtual cycles this node's messages spent
	// waiting for busy channels or network interfaces (always zero
	// under the uniform model).
	QueueCycles int64
	// Retransmits counts messages this node re-sent after a delivery
	// fault dropped them (lossy fault plans only; see internal/fault and
	// the tempest retransmission layer).
	Retransmits int64
	// RetransCycles counts the virtual cycles lost to those drops: the
	// timeout window plus backoff per retransmission.
	RetransCycles int64
	// DupDelivered counts duplicate copies the receiver's sequence
	// numbers discarded.
	DupDelivered int64
	// ReorderHeld counts messages held for resequencing at the receiver
	// because they overtook an earlier one.
	ReorderHeld int64
}

// Add accumulates o into c.
func (c *Counters) Add(o *Counters) {
	for k := range c.Msgs {
		c.Msgs[k] += o.Msgs[k]
	}
	c.Bytes += o.Bytes
	c.QueueCycles += o.QueueCycles
	c.Retransmits += o.Retransmits
	c.RetransCycles += o.RetransCycles
	c.DupDelivered += o.DupDelivered
	c.ReorderHeld += o.ReorderHeld
}

// TotalMsgs returns the message count summed over kinds.
func (c *Counters) TotalMsgs() int64 {
	var t int64
	for _, v := range c.Msgs {
		t += v
	}
	return t
}

// LinkStats summarizes network-side occupancy after a run.
type LinkStats struct {
	// Links is the number of directed channels (including NIs).
	Links int
	// MaxBusy is the busiest channel's cumulative busy cycles.
	MaxBusy int64
	// TotalBusy is busy cycles summed over channels.
	TotalBusy int64
}

// Network is the interconnect consulted by the protocol layers.  Each
// method returns the virtual cycles to charge the calling node and
// records the message(s) into c.  now is the caller's current virtual
// time, used by contention-aware models to resolve queueing.
//
// Implementations must be safe for concurrent use: protocol handlers on
// different nodes route messages concurrently.
type Network interface {
	// Name identifies the model ("uniform" or "fattree").
	Name() string
	// RoundTrip prices a blocking request/response exchange carrying
	// payload data bytes on the reply.
	RoundTrip(src, dst int, payload int64, now int64, c *Counters) int64
	// Timeout prices a request whose reply never arrived (a dropped
	// message): the request is routed, the reply is not.
	Timeout(src, dst int, now int64, c *Counters) int64
	// Forward prices the home-to-owner forward leg of a three-hop miss.
	Forward(src, dst int, now int64, c *Counters) int64
	// Upgrade prices a no-data permission-upgrade round trip.
	Upgrade(src, dst int, now int64, c *Counters) int64
	// Invalidate prices one blocking invalidation of a remote copy.
	Invalidate(src, dst int, now int64, c *Counters) int64
	// Flush prices a fire-and-forget writeback of payload data bytes:
	// the sender is charged injection only, but the message still
	// occupies channels for followers.
	Flush(src, dst int, payload int64, now int64, c *Counters) int64
	// Barrier accounts one barrier packet.  Barriers ride the CM-5
	// control network, so no data-network cycles are charged; the
	// synchronization cost itself stays cost.Model.Barrier.
	Barrier(node int, c *Counters)
	// LinkStats reports occupancy after the machine quiesces.
	LinkStats() LinkStats
}

// Config selects and parameterizes a network model.  The zero value
// means "uniform with default parameters".
type Config struct {
	// Model is "", "uniform", or "fattree".
	Model string
	// HopCycles is the fixed per-link switch latency (fattree only).
	HopCycles int64
	// NICycles is the network-interface inject/eject occupancy per
	// message end (fattree only).
	NICycles int64
	// CyclesPerByte is the per-link serialization rate; lower is more
	// link bandwidth (fattree only).
	CyclesPerByte int64
	// HeaderBytes is the per-message header size used for byte
	// accounting (both models) and serialization (fattree).
	HeaderBytes int64
}

// Defaults used when Config fields are zero.  Calibrated so that an
// uncontended fattree remote round trip lands in the same few-thousand
// cycle range as cost.Model.RemoteRoundTrip.
const (
	DefaultHopCycles     = 50
	DefaultNICycles      = 400
	DefaultCyclesPerByte = 8
	DefaultHeaderBytes   = 8
)

func (cfg Config) withDefaults() Config {
	if cfg.Model == "" {
		cfg.Model = "uniform"
	}
	if cfg.HopCycles == 0 {
		cfg.HopCycles = DefaultHopCycles
	}
	if cfg.NICycles == 0 {
		cfg.NICycles = DefaultNICycles
	}
	if cfg.CyclesPerByte == 0 {
		cfg.CyclesPerByte = DefaultCyclesPerByte
	}
	if cfg.HeaderBytes == 0 {
		cfg.HeaderBytes = DefaultHeaderBytes
	}
	return cfg
}

// New builds the Network selected by cfg for a p-node machine charged
// under cost model c.
func New(cfg Config, p int, c cost.Model) (Network, error) {
	cfg = cfg.withDefaults()
	switch cfg.Model {
	case "uniform":
		return NewUniform(c, cfg.HeaderBytes), nil
	case "fattree":
		return NewFatTree(cfg, p, c), nil
	default:
		return nil, fmt.Errorf("net: unknown model %q (want uniform or fattree)", cfg.Model)
	}
}
