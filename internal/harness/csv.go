package harness

import (
	"fmt"
	"io"

	"lcm/internal/cstar"
	"lcm/internal/workloads"
)

// WriteCSV renders benchmark results as CSV for external plotting: one row
// per (workload, system) cell with the headline metrics.
func WriteCSV(w io.Writer, rows []map[cstar.System]workloads.Result) error {
	if _, err := fmt.Fprintln(w, "workload,system,sched,cycles,misses,remote_misses,local_fills,upgrades,flushes,marks,copied_words,clean_copies,reconciles,write_conflicts,net,net_msgs,net_bytes,net_queue_cycles,max_link_busy,fault_corruptions,fault_spikes,fault_stalls,fault_kills,retransmits,dup_delivered,reorder_held,checkpoints,restarts,rehomed_regions,rehomed_blocks,recovery_cycles,kv_ops,kv_gets,kv_puts,kv_reshards,kv_migrated_blocks,kv_hot_shard_ops,kv_answer"); err != nil {
		return err
	}
	for _, row := range rows {
		for _, sys := range []cstar.System{cstar.Copying, cstar.LCMscc, cstar.LCMmcc} {
			r, ok := row[sys]
			if !ok {
				continue
			}
			if _, err := fmt.Fprintf(w, "%s,%s,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
				r.Workload, r.System, r.Sched, r.Cycles,
				r.C.Misses, r.C.RemoteMisses, r.C.LocalFills, r.C.Upgrades,
				r.C.Flushes, r.C.Marks, r.C.CopiedWords,
				r.CleanCopies(), r.S.Reconciles, r.S.WriteConflicts,
				r.Net, r.C.Net.TotalMsgs(), r.C.Net.Bytes,
				r.C.Net.QueueCycles, r.Links.MaxBusy,
				r.Faults.Corruptions, r.Faults.Spikes,
				r.Faults.Stalls, r.Faults.Kills,
				r.C.Net.Retransmits, r.C.Net.DupDelivered, r.C.Net.ReorderHeld,
				r.C.Checkpoints, r.C.Restarts, r.C.Rehomings, r.C.RehomedBlocks,
				r.C.RecoveryCycles,
				r.KV.Ops, r.KV.Gets, r.KV.Puts, r.KV.Reshards,
				r.KV.MigratedBlocks, r.KV.HotShardOps, r.KV.Answer); err != nil {
				return err
			}
		}
	}
	return nil
}
