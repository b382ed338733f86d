package report

import (
	"fmt"
	"strings"

	"repro/internal/runner"
)

// Manifest renders the run manifest: what the orchestration layer did
// on this invocation — cells executed vs served from cache, and
// wall-clock. It is the at-a-glance answer to "did the cache work?".
func Manifest(st runner.Stats) string {
	var sb strings.Builder
	sb.WriteString("Run manifest\n")
	sb.WriteString(strings.Repeat("-", 44) + "\n")
	if st.Remote != "" {
		fmt.Fprintf(&sb, "  %-22s job service %s\n", "dispatch", st.Remote)
	}
	fmt.Fprintf(&sb, "  %-22s %d\n", "jobs submitted", st.Total)
	fmt.Fprintf(&sb, "  %-22s %d\n", "executed", st.Executed)
	fmt.Fprintf(&sb, "  %-22s %d (%.1f%% hit rate)\n", "cache hits", st.CacheHits, 100*st.HitRate())
	if st.Failed > 0 {
		fmt.Fprintf(&sb, "  %-22s %d\n", "failed", st.Failed)
	}
	if st.StoreErrors > 0 {
		fmt.Fprintf(&sb, "  %-22s %d (these cells will recompute next run)\n", "cache write errors", st.StoreErrors)
	}
	if st.CheckpointsWritten > 0 || st.JobsResumed > 0 {
		fmt.Fprintf(&sb, "  %-22s %d\n", "checkpoints written", st.CheckpointsWritten)
		fmt.Fprintf(&sb, "  %-22s %d\n", "jobs resumed", st.JobsResumed)
		fmt.Fprintf(&sb, "  %-22s %d\n", "states replayed", st.StatesReplayed)
	}
	if st.ElabDesignHits+st.ElabDesignMisses+st.ElabParseHits+st.ElabParseMisses > 0 {
		dn := st.ElabDesignHits + st.ElabDesignMisses
		pn := st.ElabParseHits + st.ElabParseMisses
		fmt.Fprintf(&sb, "  %-22s %d/%d hits\n", "simulations reused", st.ElabDesignHits, dn)
		fmt.Fprintf(&sb, "  %-22s %d/%d hits\n", "elab parses reused", st.ElabParseHits, pn)
	}
	fmt.Fprintf(&sb, "  %-22s %.2fs\n", "wall-clock", st.Wall.Seconds())
	return sb.String()
}
