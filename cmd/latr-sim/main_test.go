package main

import (
	"strings"
	"testing"
)

// runCmd runs the command body, turning a panic into a test failure so a
// crash on bad input reports which input caused it.
func runCmd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("latr-sim %v panicked: %v", args, r)
			}
		}()
		code = run(&out, &errb, args)
	}()
	return code, out.String(), errb.String()
}

// TestBadInputIsAnError checks that every bad value exits non-zero with a
// diagnostic naming it, instead of panicking or running a machine other
// than the one asked for.
func TestBadInputIsAnError(t *testing.T) {
	for _, tc := range []struct {
		args []string
		bad  string // must appear on stderr
		code int
	}{
		{[]string{"-policy", "bogus"}, "bogus", 1},
		{[]string{"-remote", "-policy", "bogus"}, "bogus", 1},
		{[]string{"-machine", "-1x8"}, "-1x8", 1},
		{[]string{"-machine", "0x8"}, "0x8", 1},
		{[]string{"-machine", "2x0"}, "2x0", 1},
		{[]string{"-remote", "-machine", "0x8"}, "0x8", 1},
		{[]string{"-cores", "0"}, "-cores 0", 1},
		{[]string{"-cores", "500"}, "-cores 500", 1},
		{[]string{"-remote", "-cores", "0"}, "-cores 0", 1},
		{[]string{"-workload", "bogus"}, "bogus", 1},
		{[]string{"-workload", "micro", "-pages", "0"}, "pages 0", 1},
		{[]string{"-workload", "micro", "-iters", "0"}, "iters 0", 1},
		{[]string{"-remote", "-cores", "16"}, "16 workers", 1},
		{[]string{"-remote", "-remote-frames", "-1"}, "RemoteFrames -1 is negative", 1},
		{[]string{"-cluster", "-cluster-machine", "2x2"}, "2x2", 1},
		{[]string{"-cluster", "-check"}, "-check", 1},
		{[]string{"-matrix", "-audit"}, "-audit", 1},
		{[]string{"-remote", "-chaos-profile", "unsafe-reclaim"}, "-chaos-profile", 1},
		{[]string{"-matrix", "-chaos-profile", "tick-drop"}, "-chaos-profile", 1},
		{[]string{"-cluster", "-chaos-seed", "7"}, "-chaos-seed", 1},
		{[]string{"-litmus", "-chaos-profile", "jitter"}, "-chaos-profile", 1},
		{[]string{"-tune-cf", "QueueDepth=4", "-chaos-profile", "jitter"}, "-chaos-profile", 1},
		{[]string{"-tune-cf", "QueueDepth"}, "QueueDepth", 2},
		{[]string{"-tune-cf", "QueueDepth=many"}, "many", 2},
		{[]string{"-tune-cf", "QueueDepth=4", "-tune-cell", "churn"}, "churn", 2},
		{[]string{"-tune-cf", "QueueDepth=4", "-tune-cell", "churn@9x9"}, "9x9", 1},
		{[]string{"-tune-cf", "QueueDepth=4", "-tune-cell", "nope@2x8"}, "nope", 1},
		{[]string{"-no-such-flag"}, "no-such-flag", 2},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			code, stdout, stderr := runCmd(t, tc.args...)
			if code != tc.code {
				t.Errorf("exit %d, want %d (stdout %q)", code, tc.code, stdout)
			}
			if !strings.Contains(stderr, tc.bad) {
				t.Errorf("stderr does not name %q: %q", tc.bad, stderr)
			}
		})
	}
}

// TestSingleRun runs a tiny micro workload on the default machine.
func TestSingleRun(t *testing.T) {
	code, stdout, stderr := runCmd(t, "-workload", "micro", "-cores", "2", "-iters", "2", "-dump=false")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.HasPrefix(stdout, "machine=2-socket-16-core policy=latr workload=micro ") {
		t.Errorf("stdout = %q", stdout)
	}
}

// TestRemoteAudit checks that -audit reaches the -remote run: the auditor
// runs and its verdict is printed.
func TestRemoteAudit(t *testing.T) {
	code, stdout, stderr := runCmd(t, "-remote", "-policy", "linux", "-machine", "2x8", "-duration", "150ms", "-audit", "-dump=false")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.HasSuffix(stdout, "audit: no coherence violations\n") {
		t.Errorf("no audit verdict at the end of stdout:\n%s", stdout)
	}
}

// TestNUMAScans checks that -numa balances the workload's own processes:
// the balancer scans only registered processes, so a run that installs
// it without registering the workload prints no numa counter.
func TestNUMAScans(t *testing.T) {
	code, stdout, stderr := runCmd(t, "-policy", "latr", "-workload", "parsec:canneal", "-cores", "8", "-numa", "-duration", "20ms")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "numa.scan_passes") || !strings.Contains(stdout, "numa.hint_faults") {
		t.Errorf("no numa scan counters in the dump:\n%s", stdout)
	}
}

// TestCounterfactualSelectsItself checks that -tune-cf alone runs the
// counterfactual rather than the default workload.
func TestCounterfactualSelectsItself(t *testing.T) {
	code, stdout, stderr := runCmd(t, "-tune-cf", "QueueDepth=4", "-quick")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.HasPrefix(stdout, "counterfactual cell=churn@2x8 seed=1 quick=true\nknob QueueDepth: 64 -> 4\n") {
		t.Errorf("stdout = %q", stdout)
	}
}

// TestClusterLine pins the whole stdout of one -cluster run. Its digest is
// the one the cluster package pins for the same node-crash run, so the
// flags' config assembly and the line format are tied to that pin.
func TestClusterLine(t *testing.T) {
	code, stdout, stderr := runCmd(t, "-cluster", "-policies", "latr", "-cluster-routers", "round-robin",
		"-cluster-profiles", "node-crash", "-duration", "40ms", "-seed", "11")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	const want = "cluster policy=latr router=round-robin profile=node-crash seed=11 nodes=3 " +
		"offered=5981 completed=5981 failed=0 retries=0 hedges=3 timeouts=3 shed=0 " +
		"goodput=149525/s p50=21.504us p99=38.912us violations=0 digest=0ddfe5a424676aa7\n" +
		"cluster: 1 cells, 0 violation(s)\n"
	if stdout != want {
		t.Errorf("stdout = %q\nwant     %q", stdout, want)
	}
}
