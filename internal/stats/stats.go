// Package stats collects protocol and execution counters for the simulated
// machine and formats them for the experiment harness.
//
// Counters come in two flavours.  NodeCounters are owned by a single node
// goroutine and are plain integers updated on the hot path; they are
// aggregated only between phases.  Shared counters (clean copies created at
// a home, reconciliation conflicts, and so on) are updated from protocol
// handlers running on behalf of arbitrary nodes and therefore use atomics.
package stats

import (
	"fmt"
	"strings"
	"sync/atomic"

	"lcm/internal/net"
)

// NodeCounters is the per-node event record.  All fields are updated only
// by the owning node's goroutine (or inside a barrier window) and read
// after the machine quiesces.
type NodeCounters struct {
	// Hits counts loads/stores permitted by the access-control tags.
	Hits int64
	// Misses counts data-carrying protocol faults (block fetched from
	// home, a remote owner, or local memory).  This is the paper's
	// "cache misses" metric.
	Misses int64
	// RemoteMisses is the subset of Misses served by a remote node.
	RemoteMisses int64
	// LocalFills is the subset of Misses served from local memory
	// (the node is the home, or a locally retained clean copy).
	LocalFills int64
	// Upgrades counts ReadOnly -> ReadWrite permission upgrades that
	// carried no data.
	Upgrades int64
	// InvalidationsSent counts copies this node caused to be invalidated.
	InvalidationsSent int64
	// InvalidationsRecv counts this node's lines invalidated by others.
	InvalidationsRecv int64
	// Flushes counts modified blocks returned home by FlushCopies or
	// ReconcileCopies.
	Flushes int64
	// WordsFlushed counts modified 32-bit words carried by those flushes.
	WordsFlushed int64
	// Marks counts LCM MarkModification directives executed.
	Marks int64
	// Barriers counts global barriers this node participated in.
	Barriers int64
	// CopiedWords counts words moved by program-level explicit copying
	// (the baseline's compiler-generated copy code).
	CopiedWords int64
	// Evictions counts capacity evictions (limited-cache configurations).
	Evictions int64

	// The fields below are the fault-recovery record; all stay zero
	// unless a fault.Injector is attached to the machine.

	// CorruptedTransfers counts block transfers that arrived corrupted
	// (checksum mismatch) and were healed by re-fetch.
	CorruptedTransfers int64
	// FaultRetries counts re-fetches of corrupted transfers (message
	// re-sends are Net.Retransmits).
	FaultRetries int64
	// BackoffCycles counts virtual cycles spent in retry backoff.
	BackoffCycles int64
	// OccupancySpikes counts injected handler occupancy spikes absorbed.
	OccupancySpikes int64
	// Stalls counts injected node stalls; StallCycles is their total
	// virtual-clock jump.
	Stalls      int64
	StallCycles int64

	// The fields below are the crash-recovery record; all stay zero
	// unless the attached fault plan sets KillRecover.

	// Checkpoints counts barrier-epoch checkpoints this node captured.
	Checkpoints int64
	// Restarts counts checkpoint restarts after injected kills.
	Restarts int64
	// RestoredLines counts lines restored across those restarts.
	RestoredLines int64
	// ReplayedOps counts memory operations deterministically replayed
	// between the restored checkpoint and the crash point.
	ReplayedOps int64
	// RecoveryCycles counts virtual cycles charged to checkpoint
	// restarts (restore, replay, rejoin).
	RecoveryCycles int64
	// Rehomings counts degraded-mode migrations of this node's home
	// responsibility to a live peer.
	Rehomings int64
	// RehomedBlocks counts blocks whose home moved in those migrations.
	RehomedBlocks int64

	// Net is the interconnect accounting record: messages injected by
	// kind, bytes, and cycles spent queueing for busy channels.
	Net net.Counters
}

// Add accumulates o into c.
func (c *NodeCounters) Add(o *NodeCounters) {
	c.Hits += o.Hits
	c.Misses += o.Misses
	c.RemoteMisses += o.RemoteMisses
	c.LocalFills += o.LocalFills
	c.Upgrades += o.Upgrades
	c.InvalidationsSent += o.InvalidationsSent
	c.InvalidationsRecv += o.InvalidationsRecv
	c.Flushes += o.Flushes
	c.WordsFlushed += o.WordsFlushed
	c.Marks += o.Marks
	c.Barriers += o.Barriers
	c.CopiedWords += o.CopiedWords
	c.Evictions += o.Evictions
	c.CorruptedTransfers += o.CorruptedTransfers
	c.FaultRetries += o.FaultRetries
	c.BackoffCycles += o.BackoffCycles
	c.OccupancySpikes += o.OccupancySpikes
	c.Stalls += o.Stalls
	c.StallCycles += o.StallCycles
	c.Checkpoints += o.Checkpoints
	c.Restarts += o.Restarts
	c.RestoredLines += o.RestoredLines
	c.ReplayedOps += o.ReplayedOps
	c.RecoveryCycles += o.RecoveryCycles
	c.Rehomings += o.Rehomings
	c.RehomedBlocks += o.RehomedBlocks
	c.Net.Add(&o.Net)
}

// Shared holds machine-wide counters updated from protocol handlers under
// block locks; they use atomics because the updating goroutine is whichever
// node triggered the handler.
type Shared struct {
	// CleanCopiesHome counts clean copies created at home nodes (the
	// LCM-scc clean-copy metric of Table 1).
	CleanCopiesHome atomic.Int64
	// CleanCopiesLocal counts clean copies created in caching processors
	// (the additional copies kept by LCM-mcc).
	CleanCopiesLocal atomic.Int64
	// Reconciles counts blocks committed by ReconcileCopies.
	Reconciles atomic.Int64
	// WriteConflicts counts words written by more than one processor in
	// a single phase (C** leaves the surviving value unspecified; the
	// conflict-detection reconciler reports these as errors).
	WriteConflicts atomic.Int64
	// ReadWriteConflicts counts blocks with simultaneously outstanding
	// read-only and written copies, as detected at reconcile time when
	// conflict checking is enabled.
	ReadWriteConflicts atomic.Int64
}

// Snapshot is an immutable copy of Shared for reporting.
type Snapshot struct {
	CleanCopiesHome    int64
	CleanCopiesLocal   int64
	Reconciles         int64
	WriteConflicts     int64
	ReadWriteConflicts int64
}

// Snapshot captures the current shared counter values.
func (s *Shared) Snapshot() Snapshot {
	return Snapshot{
		CleanCopiesHome:    s.CleanCopiesHome.Load(),
		CleanCopiesLocal:   s.CleanCopiesLocal.Load(),
		Reconciles:         s.Reconciles.Load(),
		WriteConflicts:     s.WriteConflicts.Load(),
		ReadWriteConflicts: s.ReadWriteConflicts.Load(),
	}
}

// Reset zeroes all shared counters.
func (s *Shared) Reset() {
	s.CleanCopiesHome.Store(0)
	s.CleanCopiesLocal.Store(0)
	s.Reconciles.Store(0)
	s.WriteConflicts.Store(0)
	s.ReadWriteConflicts.Store(0)
}

// Table renders rows of named int64 columns as an aligned text table, for
// cmd/lcmbench output.  Columns appear in the order of cols; rows render in
// insertion order.
type Table struct {
	Title string
	cols  []string
	rows  []tableRow
}

type tableRow struct {
	name string
	vals map[string]string
}

// NewTable creates a table with the given title and column names.
func NewTable(title string, cols ...string) *Table {
	return &Table{Title: title, cols: cols}
}

// AddRow appends a row; vals maps column name to cell text.
func (t *Table) AddRow(name string, vals map[string]string) {
	t.rows = append(t.rows, tableRow{name: name, vals: vals})
}

// AddInts appends a row of integer cells rendered with thousands grouping.
func (t *Table) AddInts(name string, vals map[string]int64) {
	m := make(map[string]string, len(vals))
	for k, v := range vals {
		m[k] = GroupInt(v)
	}
	t.AddRow(name, m)
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	widths := make([]int, len(t.cols)+1)
	widths[0] = len("workload")
	for _, r := range t.rows {
		if len(r.name) > widths[0] {
			widths[0] = len(r.name)
		}
	}
	for i, c := range t.cols {
		widths[i+1] = len(c)
		for _, r := range t.rows {
			if len(r.vals[c]) > widths[i+1] {
				widths[i+1] = len(r.vals[c])
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", widths[0], c)
			} else {
				fmt.Fprintf(&b, "  %*s", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	header := append([]string{"workload"}, t.cols...)
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		cells := make([]string, 0, len(t.cols)+1)
		cells = append(cells, r.name)
		for _, c := range t.cols {
			cells = append(cells, r.vals[c])
		}
		line(cells)
	}
	return b.String()
}

// GroupInt formats v with comma thousands separators ("1,234,567").
func GroupInt(v int64) string {
	neg := v < 0
	if neg {
		v = -v
	}
	s := fmt.Sprintf("%d", v)
	if len(s) > 3 {
		var b strings.Builder
		lead := len(s) % 3
		if lead == 0 {
			lead = 3
		}
		b.WriteString(s[:lead])
		for i := lead; i < len(s); i += 3 {
			b.WriteByte(',')
			b.WriteString(s[i : i+3])
		}
		s = b.String()
	}
	if neg {
		return "-" + s
	}
	return s
}

// Thousands renders v/1000 rounded to the nearest thousand, matching the
// paper's Table 1 units ("cache misses in thousands").
func Thousands(v int64) string {
	return GroupInt((v + 500) / 1000)
}

// Bar renders a horizontal bar proportional to v/max, width chars wide,
// used for the textual "figures".
func Bar(v, max int64, width int) string {
	if max <= 0 {
		max = 1
	}
	n := int(v * int64(width) / max)
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	return strings.Repeat("#", n)
}

// Summary holds min/max/mean of a per-node metric, for load-imbalance
// reporting.
type Summary struct {
	Min, Max, Mean int64
}

// Summarize computes a Summary over vals (zero Summary for empty input).
func Summarize(vals []int64) Summary {
	if len(vals) == 0 {
		return Summary{}
	}
	s := Summary{Min: vals[0], Max: vals[0]}
	var total int64
	for _, v := range vals {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
		total += v
	}
	s.Mean = total / int64(len(vals))
	return s
}

// Imbalance returns max/mean as a percentage above perfect balance
// (0 = perfectly balanced).
func (s Summary) Imbalance() float64 {
	if s.Mean == 0 {
		return 0
	}
	return (float64(s.Max)/float64(s.Mean) - 1) * 100
}

// String renders "min 1,000 / mean 2,000 / max 3,000 (+50.0% imbalance)".
func (s Summary) String() string {
	return fmt.Sprintf("min %s / mean %s / max %s (+%.1f%% imbalance)",
		GroupInt(s.Min), GroupInt(s.Mean), GroupInt(s.Max), s.Imbalance())
}

// Speedup formats the ratio base/v as "x.xx" (how much faster v is than
// base; >1 means faster).
func Speedup(base, v int64) string {
	if v == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2f", float64(base)/float64(v))
}
