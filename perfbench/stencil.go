package main

import (
	"fmt"
	"time"

	"lcm/internal/core"
	"lcm/internal/cost"
	"lcm/internal/cstar"
	"lcm/internal/memsys"
	"lcm/internal/net"
	"lcm/internal/stache"
	"lcm/internal/stats"
	"lcm/internal/tempest"
	"lcm/internal/workloads"
)

// The traced run replays the Stencil cells through this driver rather
// than through workloads.RunStencil, because the workload builds its
// machine internally and the decorators must be installed before Freeze.
// The driver uses only public constructors and the public cstar kernel
// API, and mirrors RunStencil step for step; the self-check in
// traceCells holds it to the workload's simulated counters exactly.

// stencilMachine is one built, frozen and initialised Stencil cell.
type stencilMachine struct {
	m      *tempest.Machine
	inner  tempest.Protocol
	tr     *tracer // nil when untraced
	a, old *cstar.MatrixF32
	spec   workloads.StencilSpec
	sys    cstar.System
}

// buildStencil constructs a cell's machine the way workloads.Config does
// for the benchmark's configuration (deterministic serial scheduler,
// 32-byte blocks, default cost model).  When traced, the protocol and
// network are wrapped in a tracer's decorators before Freeze.
func buildStencil(sys cstar.System, spec workloads.StencilSpec, p int, netModel string, seed uint64, traced bool) (*stencilMachine, error) {
	cm := cost.Default()
	m := cstar.NewMachine(p, 32, cm, sys)
	m.DetSched = true
	m.SchedSeed = seed
	if netModel != "uniform" {
		nw, err := net.New(net.Config{Model: netModel}, p, cm)
		if err != nil {
			return nil, err
		}
		m.SetNetwork(nw)
	}
	sm := &stencilMachine{m: m, inner: m.Protocol(), spec: spec, sys: sys}
	if traced {
		sm.tr = newTracer(m)
		m.SetProtocol(tracedProtocol{Protocol: sm.inner, t: sm.tr})
		m.SetNetwork(tracedNet{Network: m.Net, t: sm.tr})
	}
	sm.a = cstar.NewMatrixF32(m, "A", spec.N, spec.N, cstar.DataPolicy(sys), memsys.Interleaved)
	if sys == cstar.Copying {
		sm.old = cstar.NewMatrixF32(m, "A.old", spec.N, spec.N, core.Coherent(), memsys.Interleaved)
	}
	if err := m.FreezeErr(); err != nil {
		return nil, err
	}
	initStencilMesh(sm.a.Poke, spec.N)
	if sm.old != nil {
		initStencilMesh(sm.old.Poke, spec.N)
	}
	return sm, nil
}

// cellCounters are the simulated observables the self-check compares.
type cellCounters struct {
	Cycles  int64
	Misses  int64
	NetMsgs int64
}

func (c cellCounters) String() string {
	return fmt.Sprintf("simcycles=%d misses=%d net_msgs=%d", c.Cycles, c.Misses, c.NetMsgs)
}

// stencilRun is one driver execution: its host wall time, grants, and
// machine-wide counters.
type stencilRun struct {
	wall   time.Duration
	grants int
	ctr    stats.NodeCounters
	sim    cellCounters
}

// run executes the kernel exactly as workloads.RunStencil does, then
// audits the protocol and verifies the mesh against a sequential
// reference.
func (sm *stencilMachine) run() (stencilRun, error) {
	m, spec := sm.m, sm.spec
	plan := cstar.Lower(cstar.AccessSummary{WritesOwnElementOnly: true, ReadsSharedData: true}, sm.sys)
	var sched cstar.Scheduler = cstar.StaticSchedule{}
	if spec.Sched == "dynamic" {
		sched = cstar.RotatingSchedule{}
	}
	inner := spec.N - 2
	total := inner * inner
	scratch := newRowScratch(m.P, inner)
	a, old := sm.a, sm.old

	if sm.tr != nil {
		sm.tr.start()
	}
	t0 := time.Now()
	err := m.RunErr(func(n *tempest.Node) {
		cur, prev := a, old
		for it := 0; it < spec.Iters; it++ {
			src := cur
			if plan.Mode == cstar.ModeCopying {
				src = prev
				sc := scratch[n.ID]
				lo, hi := sched.Range(n.ID, n.M.P, it, total)
				sweepRowPieces(lo, hi, inner, func(i, jlo, jhi int) {
					k := jhi - jlo
					up, down := sc.up[:k], sc.down[:k]
					left, right := sc.left[:k], sc.right[:k]
					out := sc.out[:k]
					src.GetRowSpan(n, i-1, jlo, up)
					src.GetRowSpan(n, i+1, jlo, down)
					src.GetRowSpan(n, i, jlo-1, left)
					src.GetRowSpan(n, i, jlo+1, right)
					for x := 0; x < k; x++ {
						out[x] = stencilVal(up[x], down[x], left[x], right[x])
					}
					n.Compute(4 * int64(k))
					cur.SetRowSpan(n, i, jlo, out)
				})
				cstar.EndParallel(n)
				cur, prev = prev, cur
				continue
			}
			cstar.ForEach(n, sched, plan, it, total, func(idx int) {
				i := 1 + idx/inner
				j := 1 + idx%inner
				v := stencilVal(src.Get(n, i-1, j), src.Get(n, i+1, j),
					src.Get(n, i, j-1), src.Get(n, i, j+1))
				cur.Set(n, i, j, v)
				n.Compute(4)
			})
			cstar.EndParallel(n)
		}
	})
	r := stencilRun{wall: time.Since(t0)}
	if err != nil {
		return r, err
	}
	r.grants = m.Sched().Steps()
	r.ctr = m.TotalCounters()
	r.sim = cellCounters{Cycles: m.MaxClock(), Misses: r.ctr.Misses, NetMsgs: r.ctr.Net.TotalMsgs()}

	final := a
	switch p := sm.inner.(type) {
	case *core.LCM:
		err = p.CheckQuiescent()
		p.DrainToHome()
	case *stache.Protocol:
		err = p.CheckInvariants()
		p.DrainToHome()
		if spec.Iters%2 == 0 {
			final = old
		}
	}
	if err != nil {
		return r, err
	}
	return r, verifyStencil(final, spec)
}

// The helpers below restate the workload's unexported kernel pieces; the
// float expressions must stay identical for the mesh to verify bit-exactly.

func initStencilMesh(poke func(i, j int, v float32), n int) {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			poke(i, j, float32((i*31+j*17)%97)/9.7)
		}
	}
	for j := 0; j < n; j++ {
		poke(0, j, 100)
	}
}

func stencilVal(up, down, left, right float32) float32 {
	return (up + down + left + right) * 0.25
}

type rowScratch struct {
	up, down, left, right, out []float32
}

func newRowScratch(p, k int) []rowScratch {
	sc := make([]rowScratch, p)
	for i := range sc {
		sc[i] = rowScratch{
			up: make([]float32, k), down: make([]float32, k),
			left: make([]float32, k), right: make([]float32, k), out: make([]float32, k),
		}
	}
	return sc
}

func sweepRowPieces(lo, hi, inner int, fn func(i, jlo, jhi int)) {
	for idx := lo; idx < hi; {
		end := idx + inner - idx%inner
		if end > hi {
			end = hi
		}
		fn(1+idx/inner, 1+idx%inner, 1+idx%inner+(end-idx))
		idx = end
	}
}

func verifyStencil(got *cstar.MatrixF32, spec workloads.StencilSpec) error {
	n := spec.N
	cur := make([][]float32, n)
	old := make([][]float32, n)
	for i := range cur {
		cur[i] = make([]float32, n)
		old[i] = make([]float32, n)
	}
	initStencilMesh(func(i, j int, v float32) { cur[i][j] = v; old[i][j] = v }, n)
	for it := 0; it < spec.Iters; it++ {
		cur, old = old, cur
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				cur[i][j] = stencilVal(old[i-1][j], old[i+1][j], old[i][j-1], old[i][j+1])
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if got.Peek(i, j) != cur[i][j] {
				return fmt.Errorf("stencil: A[%d][%d] = %v, want %v", i, j, got.Peek(i, j), cur[i][j])
			}
		}
	}
	return nil
}
