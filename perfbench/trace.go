package main

import (
	"time"

	"lcm/internal/memsys"
	"lcm/internal/net"
	"lcm/internal/tempest"
)

// span names the layer a host-time interval is charged to.
type span uint8

const (
	spanKernel    span = iota // node code outside any protocol or network call
	spanFault                 // Protocol.ReadFault / WriteFault
	spanMark                  // Protocol.MarkModification
	spanFlush                 // Protocol.FlushCopies
	spanReconcile             // Protocol.ReconcileCopies (its barrier waits are handoff)
	spanEvict                 // Protocol.Evict
	spanNet                   // any net.Network pricing call
	numSpans
)

// tracer attributes host time to layers from span events recorded at the
// two public seams of a machine: the protocol and the network.
//
// Under the serial deterministic scheduler exactly one node runs at a
// time, so one host clock orders every event.  The interval between two
// consecutive events of the same node belongs to the innermost span open
// on that node's stack (its self time), or to the kernel when the stack is
// empty.  An interval that ends on a different node than it started is a
// scheduler handoff: the grant plus whatever the outgoing node did after
// its last event and the incoming node did before its first.  The second
// part cannot be separated from outside the program; comparing
// sched.handoff_ns_per_grant with the pure sched.grant_ns driver bounds
// it.
//
// The tracer is not locked: the scheduler's token handoff orders every
// access, because only the running node records events.
type tracer struct {
	t0       time.Time
	last     int64
	lastNode int
	stacks   [][]span
	self     [numSpans]int64
	calls    [numSpans]int64
	handoff  int64
	netNode  map[*net.Counters]int
}

func newTracer(m *tempest.Machine) *tracer {
	t := &tracer{
		stacks:  make([][]span, m.P),
		netNode: make(map[*net.Counters]int, m.P),
	}
	for _, nd := range m.Nodes {
		t.netNode[&nd.Ctr.Net] = nd.ID
	}
	return t
}

// start resets the clock; call it just before the run.
func (t *tracer) start() {
	t.t0 = time.Now()
	t.last = 0
	t.lastNode = -1
}

// event charges the interval since the previous event and moves the clock.
func (t *tracer) event(node int) {
	now := int64(time.Since(t.t0))
	d := now - t.last
	if node == t.lastNode {
		top := spanKernel
		if st := t.stacks[node]; len(st) > 0 {
			top = st[len(st)-1]
		}
		t.self[top] += d
	} else if t.lastNode >= 0 {
		t.handoff += d
	}
	t.last = now
	t.lastNode = node
}

func (t *tracer) begin(node int, s span) {
	t.event(node)
	t.stacks[node] = append(t.stacks[node], s)
	t.calls[s]++
}

func (t *tracer) end(node int) {
	t.event(node)
	st := t.stacks[node]
	t.stacks[node] = st[:len(st)-1]
}

// tracedProtocol times every call into the machine's coherence protocol.
type tracedProtocol struct {
	tempest.Protocol
	t *tracer
}

func (p tracedProtocol) ReadFault(n *tempest.Node, b memsys.BlockID) *tempest.Line {
	p.t.begin(n.ID, spanFault)
	l := p.Protocol.ReadFault(n, b)
	p.t.end(n.ID)
	return l
}

func (p tracedProtocol) WriteFault(n *tempest.Node, b memsys.BlockID) *tempest.Line {
	p.t.begin(n.ID, spanFault)
	l := p.Protocol.WriteFault(n, b)
	p.t.end(n.ID)
	return l
}

func (p tracedProtocol) MarkModification(n *tempest.Node, a memsys.Addr) {
	p.t.begin(n.ID, spanMark)
	p.Protocol.MarkModification(n, a)
	p.t.end(n.ID)
}

func (p tracedProtocol) FlushCopies(n *tempest.Node) {
	p.t.begin(n.ID, spanFlush)
	p.Protocol.FlushCopies(n)
	p.t.end(n.ID)
}

func (p tracedProtocol) ReconcileCopies(n *tempest.Node) {
	p.t.begin(n.ID, spanReconcile)
	p.Protocol.ReconcileCopies(n)
	p.t.end(n.ID)
}

func (p tracedProtocol) Evict(n *tempest.Node, b memsys.BlockID) bool {
	p.t.begin(n.ID, spanEvict)
	ok := p.Protocol.Evict(n, b)
	p.t.end(n.ID)
	return ok
}

// tracedNet times every pricing call into the machine's network model.
// The calling node is the owner of the counters the call records into.
type tracedNet struct {
	net.Network
	t *tracer
}

func (w tracedNet) RoundTrip(src, dst int, payload, now int64, c *net.Counters) int64 {
	node := w.t.netNode[c]
	w.t.begin(node, spanNet)
	v := w.Network.RoundTrip(src, dst, payload, now, c)
	w.t.end(node)
	return v
}

func (w tracedNet) Timeout(src, dst int, now int64, c *net.Counters) int64 {
	node := w.t.netNode[c]
	w.t.begin(node, spanNet)
	v := w.Network.Timeout(src, dst, now, c)
	w.t.end(node)
	return v
}

func (w tracedNet) Forward(src, dst int, now int64, c *net.Counters) int64 {
	node := w.t.netNode[c]
	w.t.begin(node, spanNet)
	v := w.Network.Forward(src, dst, now, c)
	w.t.end(node)
	return v
}

func (w tracedNet) Upgrade(src, dst int, now int64, c *net.Counters) int64 {
	node := w.t.netNode[c]
	w.t.begin(node, spanNet)
	v := w.Network.Upgrade(src, dst, now, c)
	w.t.end(node)
	return v
}

func (w tracedNet) Invalidate(src, dst int, now int64, c *net.Counters) int64 {
	node := w.t.netNode[c]
	w.t.begin(node, spanNet)
	v := w.Network.Invalidate(src, dst, now, c)
	w.t.end(node)
	return v
}

func (w tracedNet) Flush(src, dst int, payload, now int64, c *net.Counters) int64 {
	node := w.t.netNode[c]
	w.t.begin(node, spanNet)
	v := w.Network.Flush(src, dst, payload, now, c)
	w.t.end(node)
	return v
}

func (w tracedNet) Barrier(node int, c *net.Counters) {
	w.t.begin(node, spanNet)
	w.Network.Barrier(node, c)
	w.t.end(node)
}
