package main

import (
	_ "embed"
	"fmt"
	"strings"
)

// digests.txt holds, per workload and seed, every operation's committed
// output in plan order: "<registry fingerprint>:<requests served or finish
// time ns>" per machine, and one digest per litmus scenario over its runs
// on both topologies. Regenerate a line with --record.
//
//go:embed digests.txt
var digestsTxt string

var committedDigests = parseDigests(digestsTxt)

func digestKey(workload string, seed uint64) string { return fmt.Sprintf("%s/%d", workload, seed) }

func digestLine(workload string, seed uint64, ops []opResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %d", workload, seed)
	for _, op := range ops {
		b.WriteString(" ")
		b.WriteString(op.digest)
	}
	return b.String()
}

func parseDigests(text string) map[string][]string {
	out := map[string][]string{}
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		out[f[0]+"/"+f[1]] = f[2:]
	}
	return out
}
