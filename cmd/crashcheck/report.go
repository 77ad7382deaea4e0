package main

import (
	"fmt"
	"io"
	"strings"

	"splitfs/internal/crash"
	"splitfs/internal/pmem"
)

// The violation report: what -out writes, and what a minimized
// reproducer looks like on stdout — one shape for direct and served
// campaigns.

// writeViolation adds one violation to the report, with the served
// stack's flight-recorder traces of the breached generation when it has
// them: the last ops each tenant had in flight when the image froze.
func writeViolation(w io.Writer, tag string, v crash.Violation) {
	fmt.Fprintf(w, "%sVIOLATION kind=%s seed=%d %s: %s\n", tag, v.Kind, v.Seed, where(v), v.Msg)
	if v.Flight != "" {
		fmt.Fprintf(w, "flight traces:\n%s", v.Flight)
	}
}

// where names a violation's crash points, each as pmem.CrashPoint prints
// it: the first, then the second when the breach needed one. A boundary
// run's violation has neither.
func where(v crash.Violation) string {
	switch {
	case v.At.Ev.Seq == 0:
		return "after the workload"
	case v.Second.Ev.Seq == 0:
		return fmt.Sprintf("at %v", v.At)
	}
	return fmt.Sprintf("at %v, again in recovery at %v", v.At, v.Second)
}

// minimizerSweep is what a minimizer re-sweeps each candidate with: a
// smaller sample than the run that found the violations vios, and their
// witness points — event and way — pinned, re-tested first, so the first
// re-sweep cannot miss them.
func minimizerSweep(sample, most int, vios []crash.Violation) (int, []pmem.CrashPoint) {
	if sample == 0 || sample > most {
		sample = most
	}
	var include []pmem.CrashPoint
	for _, v := range vios {
		if v.At.Ev.Seq > 0 {
			include = append(include, v.At)
		}
	}
	return sample, include
}

// reportRepro prints a minimized reproducer under its headline and adds
// it to the report: one op list per tenant of a served campaign, a single
// unlabelled one for a direct campaign.
func reportRepro(report io.Writer, headline string, served bool, tenantOps [][]crash.Op) {
	var repro strings.Builder
	repro.WriteString(headline)
	for t, ops := range tenantOps {
		who := ""
		if served {
			who = fmt.Sprintf("tenant %d ", t)
		}
		for i, op := range ops {
			fmt.Fprintf(&repro, "  %sop %d: %v %s %s off=%d size=%d len=%d fsync=%v close=%v\n",
				who, i+1, op.Kind, op.Path, op.Path2, op.Off, op.Size, len(op.Data), op.Fsync, op.Close)
		}
	}
	fmt.Print(repro.String())
	io.WriteString(report, repro.String())
}
