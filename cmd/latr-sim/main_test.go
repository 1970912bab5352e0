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
		{[]string{"-tune-cf", "QueueDepth"}, "QueueDepth", 2},
		{[]string{"-tune-cf", "QueueDepth=many"}, "many", 2},
		{[]string{"-tune-cf", "QueueDepth=4", "-tune-cell", "churn"}, "churn", 2},
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
