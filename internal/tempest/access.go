package tempest

import (
	"encoding/binary"
	"fmt"
	"math"

	"lcm/internal/memsys"
)

// This file implements the program-visible load/store interface.  Every
// access checks the node's fine-grain access-control tag for the block
// (Blizzard-E's lookup) and traps to the protocol's user-level handler on a
// tag violation.  Accesses must not straddle block boundaries; the C**
// runtime allocates aggregates element-aligned so they never do.
//
// The scalar accessors below and the span accessors in access_span.go both
// funnel into loadSeg/storeSeg, so the fault/charge/write-through sequence
// exists in exactly one place; the only difference is how many permitted
// accesses a single tag check amortizes (see "Fast-path invariants" in
// DESIGN.md).

// lineFor returns the node's line for b via the MRU cache, falling back to
// the line table (and refreshing the MRU) on a different block.  The
// caller must still check the returned line's tag: line pointers are
// assigned once and never reassigned, so a stale MRU entry can at worst
// carry a revoked tag, which the check catches.
func (n *Node) lineFor(b memsys.BlockID) *Line {
	if l := n.mruLine; l != nil && n.mruBlock == b {
		return l
	}
	l := n.lines[b]
	if l != nil {
		n.mruBlock, n.mruLine = b, l
	}
	return l
}

// readable returns the line for b if a load is permitted, else nil.
func (n *Node) readable(b memsys.BlockID) *Line {
	if l := n.lineFor(b); l != nil && l.Tag() >= TagReadOnly {
		return l
	}
	return nil
}

// writable returns the line for b if a store is permitted, else nil.
func (n *Node) writable(b memsys.BlockID) *Line {
	if l := n.lineFor(b); l != nil && l.Tag() >= TagReadWrite {
		return l
	}
	return nil
}

// loadFault is the out-of-line read-miss path: trap to the protocol and
// refresh the MRU with the installed line.  Kept separate so the hot-path
// functions stay small enough to avoid extra call layers.
func (n *Node) loadFault(b memsys.BlockID) *Line {
	n.preFault(b)
	n.makeRoom()
	l := n.M.protocol.ReadFault(n, b)
	n.mruBlock, n.mruLine = b, l
	return l
}

// loadSeg is THE load access sequence, shared by the scalar and span read
// paths: one tag check for block b — faulting to the protocol when it
// fails — then a single charge for k permitted loads within the block.
func (n *Node) loadSeg(b memsys.BlockID, k int64) *Line {
	l := n.readable(b)
	if l == nil {
		l = n.loadFault(b)
	}
	n.clock += k * n.M.Cost.CacheHit
	n.Ctr.Hits += k
	return l
}

// load32 is the scalar 32-bit load fast path — loadSeg with k=1 flattened
// in, so a scalar load costs a single non-inlined call (the typed Read*
// wrappers all inline down to this or load64).
func (n *Node) load32(a memsys.Addr) uint32 {
	b, off := n.M.AS.Split(a)
	if off+4 > n.M.AS.BlockSize {
		panic(fmt.Sprintf("tempest: load of 4 bytes at %#x straddles block boundary", a))
	}
	l := n.mruLine
	if l == nil || n.mruBlock != b {
		if l = n.lines[b]; l != nil {
			n.mruBlock, n.mruLine = b, l
		}
	}
	if l == nil || l.Tag() < TagReadOnly {
		l = n.loadFault(b)
	}
	n.clock += n.M.Cost.CacheHit
	n.Ctr.Hits++
	return binary.LittleEndian.Uint32(l.Data[off:])
}

// load64 is the scalar 64-bit load fast path.
func (n *Node) load64(a memsys.Addr) uint64 {
	b, off := n.M.AS.Split(a)
	if off+8 > n.M.AS.BlockSize {
		panic(fmt.Sprintf("tempest: load of 8 bytes at %#x straddles block boundary", a))
	}
	l := n.mruLine
	if l == nil || n.mruBlock != b {
		if l = n.lines[b]; l != nil {
			n.mruBlock, n.mruLine = b, l
		}
	}
	if l == nil || l.Tag() < TagReadOnly {
		l = n.loadFault(b)
	}
	n.clock += n.M.Cost.CacheHit
	n.Ctr.Hits++
	return binary.LittleEndian.Uint64(l.Data[off:])
}

// storeSeg is THE fault/charge/write-through sequence, shared by the
// scalar and span store paths.  It stores src at byte offset off of block
// b — one tag check, one fault and one home-lock acquisition for the whole
// segment — and charges k permitted stores.
//
// Stores to private (LCM) copies touch only the node-local line and need
// no locking.  Stores to coherent exclusive copies additionally write
// through to the home image under the block's lock: protocol handlers can
// then serve the current value of any coherent block from the home image
// without ever reading another node's line buffer while its owner might be
// storing — this is what makes the simulator race-free under the Go memory
// model even for programs with genuine (application-level) data races,
// such as the false-sharing ablation.  The write-through is a simulation
// mechanism, not a modelled cost: a permitted store still charges one
// cache hit per element.
func (n *Node) storeAt(a memsys.Addr, src []byte, k int64) {
	b, off := n.M.AS.Split(a)
	if off+uint32(len(src)) > n.M.AS.BlockSize {
		panic(fmt.Sprintf("tempest: store of %d bytes at %#x straddles block boundary", len(src), a))
	}
	l := n.writable(b)
	if l == nil {
		n.preFault(b)
		n.makeRoom()
		l = n.M.protocol.WriteFault(n, b)
		n.mruBlock, n.mruLine = b, l
	}
	n.clock += k * n.M.Cost.CacheHit
	n.Ctr.Hits += k
	if l.Tag() == TagPrivate {
		copy(l.Data[off:], src)
		if n.M.trackWrites {
			n.recordWrite(b, l, off, uint32(len(src)))
		}
		return
	}
	n.M.Lock(b)
	copy(l.Data[off:], src)
	copy(n.M.AS.HomeData(b)[off:], src)
	n.M.Unlock(b)
}

// store32 implements the 4-byte store path: a thin, inlinable wrapper so a
// scalar store costs a single non-inlined call (storeAt, which owns the
// block split and straddle check).
func (n *Node) store32(a memsys.Addr, v uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	n.storeAt(a, buf[:], 1)
}

// store64 implements the 8-byte store path.
func (n *Node) store64(a memsys.Addr, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	n.storeAt(a, buf[:], 1)
}

// ReadU32 loads a 32-bit word.
func (n *Node) ReadU32(a memsys.Addr) uint32 { return n.load32(a) }

// WriteU32 stores a 32-bit word.
func (n *Node) WriteU32(a memsys.Addr, v uint32) { n.store32(a, v) }

// ReadU64 loads a 64-bit word.
func (n *Node) ReadU64(a memsys.Addr) uint64 { return n.load64(a) }

// WriteU64 stores a 64-bit word.
func (n *Node) WriteU64(a memsys.Addr, v uint64) { n.store64(a, v) }

// ReadF32 loads a single-precision float (the element type of the paper's
// meshes: a 32-byte block holds eight of them).
func (n *Node) ReadF32(a memsys.Addr) float32 {
	return math.Float32frombits(n.load32(a))
}

// WriteF32 stores a single-precision float.  (Body matches store32 rather
// than calling it: the extra frame would push it past the inlining budget.)
func (n *Node) WriteF32(a memsys.Addr, v float32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
	n.storeAt(a, buf[:], 1)
}

// ReadF64 loads a double-precision float.
func (n *Node) ReadF64(a memsys.Addr) float64 {
	return math.Float64frombits(n.load64(a))
}

// WriteF64 stores a double-precision float.
func (n *Node) WriteF64(a memsys.Addr, v float64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	n.storeAt(a, buf[:], 1)
}

// ReadI32 loads a 32-bit signed integer.
func (n *Node) ReadI32(a memsys.Addr) int32 { return int32(n.load32(a)) }

// WriteI32 stores a 32-bit signed integer.
func (n *Node) WriteI32(a memsys.Addr, v int32) { n.store32(a, uint32(v)) }

// ReadI64 loads a 64-bit signed integer.
func (n *Node) ReadI64(a memsys.Addr) int64 { return int64(n.load64(a)) }

// WriteI64 stores a 64-bit signed integer.
func (n *Node) WriteI64(a memsys.Addr, v int64) { n.store64(a, uint64(v)) }

// recordWrite marks the stored words in the line's write mask when the
// block's region is conflict-checked, so reconciliation can detect
// value-equal stores as modifications (footnote 2 of the paper: trap
// stores and record modified words).  The simulator records directly
// instead of trapping; the observable semantics are the trap scheme's.
func (n *Node) recordWrite(b memsys.BlockID, l *Line, off, size uint32) {
	if !n.M.AS.RegionOfBlock(b).ConflictCheck {
		return
	}
	for w := off / 4; w < (off+size)/4; w++ {
		l.WMask |= 1 << w
	}
}

// Compute charges units of abstract computation to the node (workloads use
// this so arithmetic is not free relative to communication).
func (n *Node) Compute(units int64) { n.clock += units * n.M.Cost.Compute }
