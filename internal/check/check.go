// Package check is a bounded model checker for the simulated coherence
// protocols.  It drives tiny configurations — two or three nodes, two
// blocks, short scripted access sequences — through every reachable
// interleaving of the deterministic scheduler's decision tree and asserts
// protocol safety properties at every quiescent point and at the end of
// each run:
//
//   - Single writer: at most one node holds a read-write (exclusive) copy
//     of any block at any scheduling point.  (LCM's private copies use a
//     distinct tag and are exempt; multi-writer is their whole point.)
//   - Directory/tag agreement: the active protocol's own invariant audit
//     (stache.CheckInvariants / core.LCM.CheckInvariants) passes at every
//     scheduling point.
//   - No lost updates: after the final reconciliation, every element's
//     home value equals the last value the script wrote to it, computed
//     by an independent sequential oracle.
//   - Flush/commit pairing (LCM): every element flushed home is committed
//     exactly once per phase — total flushed and committed element counts
//     agree per block, and commits never appear on unflushed blocks.
//
// Exploration is a depth-first search over the scheduler's branch points.
// Each run replays a decision prefix and extends it with the canonical
// (index 0) choice; the run reports the fan-out at every step, and the
// search pushes the unexplored siblings.  Because the simulator is fully
// deterministic under the scheduler (the tentpole property), a decision
// prefix identifies a unique execution, so a violation is reported as a
// replayable path.
//
// A cheap sleep-set reduction prunes sibling branches that provably
// commute with the canonical choice: if the alternative candidate ran
// anyway at the very next step and the two adjacent segments are
// independent — neither crossed a barrier and their block-lock footprints
// are disjoint — then swapping them reaches the same states, and because
// every checked invariant is a per-block predicate, any violation visible
// in the swapped order is visible in the explored one.  -nosleep (the
// NoSleep field) disables the reduction for fully exhaustive runs.
package check

import (
	"fmt"
	"strings"

	"lcm/internal/core"
	"lcm/internal/cost"
	"lcm/internal/cstar"
	"lcm/internal/fault"
	"lcm/internal/memsys"
	"lcm/internal/sched"
	"lcm/internal/stache"
	"lcm/internal/tempest"
	"lcm/internal/trace"
)

// slotsPerBlock is the number of float32 elements per 32-byte block.
const slotsPerBlock = 8

// Op is one scripted access: a read or write of the given slot of the
// given block.  Writes store Val; reads assert the value the sequential
// oracle predicts.
type Op struct {
	Write bool
	Block int
	Slot  int
	Val   float32
}

// Script is a phased access program: Phases[p][n] is the op sequence node
// n executes in phase p.  Every phase ends with the reconciliation
// barrier (cstar.EndParallel), so phases are the protocol's epochs.
//
// Scripts must follow the C** data-race discipline the oracle can price:
// within one phase an element is written by at most one node, and a node
// only reads elements it wrote itself this phase or that were committed
// in an earlier phase.
type Script struct {
	Name   string
	Phases [][][]Op
}

// Config is one model-checking problem.
type Config struct {
	// System selects the protocol under test.
	System cstar.System
	// Nodes and Blocks size the machine (2-3 nodes, 2 blocks typical).
	Nodes  int
	Blocks int
	// Script is the access program.
	Script Script
	// MaxSchedules bounds the number of explored interleavings
	// (0 = unbounded: explore to exhaustion).
	MaxSchedules int
	// NoSleep disables the sleep-set reduction.
	NoSleep bool
	// Faults, when non-nil, attaches a deterministic fault injector to
	// every explored run.  With a KillRecover plan the search covers
	// kill/restart across interleavings: the kill node's recovery charge
	// perturbs the virtual clocks, so schedules around the crash point
	// are explored, and every safety property must still hold through
	// checkpointed restarts.
	Faults *fault.Plan
	// NewProtocol, when non-nil, overrides the protocol construction
	// (tests inject violating doubles here).  The protocol-specific
	// invariant audits and flush/commit pairing only run for the real
	// protocol types.
	NewProtocol func() tempest.Protocol
}

// Violation is one safety failure with everything needed to replay it.
type Violation struct {
	// Err describes the violated property.
	Err error
	// Step is the scheduler step the violation was detected at (-1 for
	// end-of-run checks).
	Step int
	// Path is the decision prefix that reaches the violation: Path[i] is
	// the index chosen among the step-i candidates (canonical order);
	// steps beyond the prefix choose index 0.
	Path []int
	// Trace is the protocol event dump of the violating run.
	Trace string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("step %d, path %v: %v", v.Step, v.Path, v.Err)
}

// Result summarizes one exploration.
type Result struct {
	// Schedules is the number of distinct interleavings executed.
	Schedules int
	// Pruned counts sibling branches skipped by the sleep-set reduction.
	Pruned int
	// Exhausted reports whether the full decision tree was covered
	// (false when MaxSchedules stopped the search early).
	Exhausted bool
	// Violation is the first safety failure found, nil if none.
	Violation *Violation
}

// oracle is the sequential prediction of every observable value: the
// expected result of each read op and the final committed image.
type oracle struct {
	// reads[ph][node][i] is the expected value of op i (reads only).
	reads [][][]float32
	// final[e] is the home value of element e after the last phase.
	final []float32
}

// buildOracle validates the script's race discipline and computes the
// expected values.
func buildOracle(cfg Config) (*oracle, error) {
	elems := cfg.Blocks * slotsPerBlock
	committed := make([]float32, elems)
	o := &oracle{reads: make([][][]float32, len(cfg.Script.Phases))}
	for ph, phase := range cfg.Script.Phases {
		if len(phase) != cfg.Nodes {
			return nil, fmt.Errorf("script %s: phase %d has %d node programs, config has %d nodes",
				cfg.Script.Name, ph, len(phase), cfg.Nodes)
		}
		writer := make(map[int]int, elems) // elem -> writing node this phase
		for node, ops := range phase {
			for _, op := range ops {
				if op.Block < 0 || op.Block >= cfg.Blocks || op.Slot < 0 || op.Slot >= slotsPerBlock {
					return nil, fmt.Errorf("script %s: phase %d node %d: op out of range: %+v",
						cfg.Script.Name, ph, node, op)
				}
				if !op.Write {
					continue
				}
				e := op.Block*slotsPerBlock + op.Slot
				if w, ok := writer[e]; ok && w != node {
					return nil, fmt.Errorf("script %s: phase %d: element %d written by nodes %d and %d",
						cfg.Script.Name, ph, e, w, node)
				}
				writer[e] = node
			}
		}
		o.reads[ph] = make([][]float32, cfg.Nodes)
		for node, ops := range phase {
			own := make(map[int]float32)
			o.reads[ph][node] = make([]float32, len(ops))
			for i, op := range ops {
				e := op.Block*slotsPerBlock + op.Slot
				if op.Write {
					own[e] = op.Val
					continue
				}
				if w, ok := writer[e]; ok && w != node {
					return nil, fmt.Errorf("script %s: phase %d node %d: reads element %d while node %d writes it (racy)",
						cfg.Script.Name, ph, node, e, w)
				}
				if v, ok := own[e]; ok {
					o.reads[ph][node][i] = v
				} else {
					o.reads[ph][node][i] = committed[e]
				}
			}
		}
		for node, ops := range phase {
			for _, op := range ops {
				if op.Write && writer[op.Block*slotsPerBlock+op.Slot] == node {
					committed[op.Block*slotsPerBlock+op.Slot] = op.Val
				}
			}
		}
	}
	o.final = committed
	return o, nil
}

// runOut is everything one execution reports back to the search.
type runOut struct {
	steps  int
	fanout []int   // candidates at each step
	nodes  [][]int // candidate node IDs at each step, canonical order
	segs   []sched.Segment
	vio    *Violation
}

// runOne executes the configuration under the decision prefix path
// (canonical choice beyond it) and checks every property.
func runOne(cfg Config, o *oracle, path []int) runOut {
	newProto := cfg.NewProtocol
	if newProto == nil {
		newProto = func() tempest.Protocol { return cstar.NewProtocol(cfg.System) }
	}
	m := tempest.New(cfg.Nodes, 32, cost.Default())
	m.SetProtocol(newProto())
	tb := m.AttachTrace(4096)
	if cfg.Faults != nil {
		m.AttachFaults(*cfg.Faults)
	}
	v := cstar.NewVectorF32(m, "v", cfg.Blocks*slotsPerBlock, cstar.DataPolicy(cfg.System), memsys.Blocked)
	m.Freeze()

	out := runOut{}
	firstBlock := v.Region().FirstBlock()
	nBlocks := v.Region().NumBlocks()
	m.SchedHook = func(s *sched.Scheduler) {
		s.EnableRecording()
		s.SetChooser(func(step int, cands []sched.Candidate) int {
			out.fanout = append(out.fanout, len(cands))
			ids := make([]int, len(cands))
			for i, c := range cands {
				ids[i] = c.Node
			}
			out.nodes = append(out.nodes, ids)
			if step < len(path) && path[step] < len(cands) {
				return path[step]
			}
			return 0
		})
		s.SetObserver(func(step int) {
			if out.vio != nil {
				return
			}
			if err := checkState(m, firstBlock, nBlocks); err != nil {
				out.vio = &Violation{Err: err, Step: step}
			}
		})
	}

	readErrs := make([]error, cfg.Nodes)
	runErr := m.RunErr(func(n *tempest.Node) {
		for ph, phase := range cfg.Script.Phases {
			for i, op := range phase[n.ID] {
				e := op.Block*slotsPerBlock + op.Slot
				if op.Write {
					v.Set(n, e, op.Val)
				} else if got, want := v.Get(n, e), o.reads[ph][n.ID][i]; got != want && readErrs[n.ID] == nil {
					readErrs[n.ID] = fmt.Errorf("phase %d node %d: read element %d = %v, oracle says %v",
						ph, n.ID, e, got, want)
				}
			}
			cstar.EndParallel(n)
		}
	})

	out.steps = m.Sched().Steps()
	out.segs = m.Sched().Segments()
	if out.vio == nil {
		out.vio = finalChecks(m, v, o, tb, runErr, readErrs)
	}
	if out.vio != nil {
		out.vio.Path = append([]int(nil), path...)
		out.vio.Trace = tb.Dump(200)
	}
	return out
}

// checkState asserts the quiescent-point invariants: the single-writer
// property over the script's blocks, and the protocol's own audit.
func checkState(m *tempest.Machine, first memsys.BlockID, n uint32) error {
	for i := uint32(0); i < n; i++ {
		b := first + memsys.BlockID(i)
		writers := 0
		for _, nd := range m.Nodes {
			if l := nd.Line(b); l != nil && l.Tag() == tempest.TagReadWrite {
				writers++
			}
		}
		if writers > 1 {
			return fmt.Errorf("single-writer violated: block %d has %d read-write copies", b, writers)
		}
	}
	switch p := m.Protocol().(type) {
	case *stache.Protocol:
		if err := p.CheckInvariants(); err != nil {
			return err
		}
	case *core.LCM:
		if err := p.CheckInvariants(); err != nil {
			return err
		}
	}
	return nil
}

// finalChecks runs the end-of-run properties: clean termination, read
// values against the oracle, the lost-update audit of the home image,
// quiescence, and LCM flush/commit pairing.
func finalChecks(m *tempest.Machine, v *cstar.VectorF32, o *oracle, tb *trace.Buffer, runErr error, readErrs []error) *Violation {
	if runErr != nil {
		return &Violation{Err: fmt.Errorf("run failed: %w", runErr), Step: -1}
	}
	for _, err := range readErrs {
		if err != nil {
			return &Violation{Err: err, Step: -1}
		}
	}
	switch p := m.Protocol().(type) {
	case *stache.Protocol:
		if err := p.CheckInvariants(); err != nil {
			return &Violation{Err: err, Step: -1}
		}
	case *core.LCM:
		if err := p.CheckQuiescent(); err != nil {
			return &Violation{Err: err, Step: -1}
		}
	}
	cstar.DrainToHome(m)
	for e, want := range o.final {
		if got := v.Peek(e); got != want {
			return &Violation{Err: fmt.Errorf("lost update: element %d home value %v, oracle says %v", e, got, want), Step: -1}
		}
	}
	if _, ok := m.Protocol().(*core.LCM); ok {
		if err := checkFlushCommit(tb); err != nil {
			return &Violation{Err: err, Step: -1}
		}
	}
	return nil
}

// checkFlushCommit audits the LCM trace: per block, the element counts
// flushed home and committed by reconciliation must agree, and a commit
// must never appear on a block nothing was flushed to.  (The script's
// race discipline guarantees no write-write conflicts, so every flushed
// element is committed exactly once per phase.)
func checkFlushCommit(tb *trace.Buffer) error {
	flushed := map[uint32]int64{}
	committed := map[uint32]int64{}
	for _, e := range tb.Merged() {
		switch e.Kind {
		case trace.Flush:
			flushed[e.Block] += int64(e.Arg)
		case trace.Commit:
			committed[e.Block] += int64(e.Arg)
		}
	}
	for b, c := range committed {
		if flushed[b] == 0 {
			return fmt.Errorf("flush/commit pairing: block %d committed %d elements but flushed none", b, c)
		}
	}
	for b, f := range flushed {
		if c := committed[b]; f != c {
			return fmt.Errorf("flush/commit pairing: block %d flushed %d elements, committed %d", b, f, c)
		}
	}
	return nil
}

// independent reports whether two adjacent segments commute: neither
// crossed a barrier and their block-lock footprints are disjoint.
func independent(a, b sched.Segment) bool {
	if a.Barrier || b.Barrier {
		return false
	}
	for _, x := range a.Blocks {
		for _, y := range b.Blocks {
			if x == y {
				return false
			}
		}
	}
	return true
}

// prunable reports whether sibling choice c at step i of the base run is
// covered by the sleep-set argument: the alternative candidate ran at the
// very next step anyway, and the two adjacent segments are independent,
// so the swapped order reaches the same per-block states.
func prunable(out runOut, i, c int) bool {
	if i+1 >= len(out.segs) {
		return false
	}
	alt := out.nodes[i][c]
	if out.segs[i+1].Node != alt {
		return false
	}
	return independent(out.segs[i], out.segs[i+1])
}

// Explore searches the configuration's interleaving tree depth-first and
// returns the first violation found, or a clean exhaustion report.
func Explore(cfg Config) (Result, error) {
	o, err := buildOracle(cfg)
	if err != nil {
		return Result{}, err
	}
	res := Result{}
	stack := [][]int{nil}
	for len(stack) > 0 {
		if cfg.MaxSchedules > 0 && res.Schedules >= cfg.MaxSchedules {
			return res, nil
		}
		path := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out := runOne(cfg, o, path)
		res.Schedules++
		if out.vio != nil {
			res.Violation = out.vio
			return res, nil
		}
		// Push unexplored siblings of every canonical choice this run
		// made beyond its prefix.  Siblings at steps < len(path) were
		// pushed when the ancestor run was expanded.
		for i := out.steps - 1; i >= len(path); i-- {
			for c := 1; c < out.fanout[i]; c++ {
				if !cfg.NoSleep && prunable(out, i, c) {
					res.Pruned++
					continue
				}
				sib := make([]int, i+1)
				copy(sib, path)
				sib[i] = c
				stack = append(stack, sib)
			}
		}
	}
	res.Exhausted = true
	return res, nil
}

// Replay executes a single decision path and returns its violation (nil
// if the path is clean) plus the run's event trace.
func Replay(cfg Config, path []int) (*Violation, string, error) {
	o, err := buildOracle(cfg)
	if err != nil {
		return nil, "", err
	}
	out := runOne(cfg, o, path)
	var dump string
	if out.vio != nil {
		dump = out.vio.Trace
	}
	return out.vio, dump, nil
}

// ParsePath parses a comma-separated decision path ("0,2,1").
func ParsePath(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var path []int
	for _, f := range strings.Split(s, ",") {
		var d int
		if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &d); err != nil || d < 0 {
			return nil, fmt.Errorf("bad path element %q", f)
		}
		path = append(path, d)
	}
	return path, nil
}
