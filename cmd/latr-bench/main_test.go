package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// pinGOMAXPROCS matches the live setting to the one the committed
// fixtures were recorded at — the gate refuses cross-GOMAXPROCS
// comparison by design, and these tests exercise the *drift* paths.
func pinGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestList prints the experiment ids and exits 0.
func TestList(t *testing.T) {
	var out, errb strings.Builder
	if code := run(&out, &errb, []string{"-list"}); code != 0 {
		t.Fatalf("-list exited %d: %s", code, errb.String())
	}
	for _, id := range []string{"fig6", "table5", "remote"} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("-list output missing %q:\n%s", id, out.String())
		}
	}
}

// TestHelpAndBadFlag: -h prints the usage and exits 0; an unknown flag
// exits 2.
func TestHelpAndBadFlag(t *testing.T) {
	for _, tc := range []struct {
		arg  string
		code int
	}{{"-h", 0}, {"-no-such-flag", 2}} {
		var out, errb strings.Builder
		if code := run(&out, &errb, []string{tc.arg}); code != tc.code {
			t.Errorf("%s exited %d, want %d", tc.arg, code, tc.code)
		}
		if !strings.Contains(errb.String(), "-compare") {
			t.Errorf("%s printed no usage: %q", tc.arg, errb.String())
		}
	}
}

// TestRunExperimentJSON runs one static experiment and archives it.
func TestRunExperimentJSON(t *testing.T) {
	t.Chdir(t.TempDir())
	var out, errb strings.Builder
	if code := run(&out, &errb, []string{"-quick", "-exp", "table1", "-json"}); code != 0 {
		t.Fatalf("-exp table1 exited %d: %s", code, errb.String())
	}
	if _, err := os.Stat("BENCH_table1.json"); err != nil {
		t.Fatalf("-json did not write the baseline: %v", err)
	}
}

// TestStdoutIndependentOfWorkers pins what lets CI cmp runs at different
// worker counts: stdout carries only the table, byte-identical at 1 and 4
// workers, and the host-dependent wall time goes to stderr.
func TestStdoutIndependentOfWorkers(t *testing.T) {
	var outs []string
	for _, workers := range []string{"1", "4"} {
		var out, errb strings.Builder
		if code := run(&out, &errb, []string{"-quick", "-exp", "fig6", "-parallel", workers}); code != 0 {
			t.Fatalf("-parallel %s exited %d: %s", workers, code, errb.String())
		}
		if !strings.HasPrefix(out.String(), "== fig6:") || !strings.HasSuffix(out.String(), "\n\n") {
			t.Errorf("-parallel %s stdout is not one table and a blank line:\n%s", workers, out.String())
		}
		if !strings.Contains(errb.String(), "(wall time ") {
			t.Errorf("-parallel %s stderr lacks the wall time: %q", workers, errb.String())
		}
		outs = append(outs, out.String())
	}
	if outs[0] != outs[1] {
		t.Errorf("stdout differs between 1 and 4 workers:\n%s\n---\n%s", outs[0], outs[1])
	}
}

// TestRunUnknownExperiment exits non-zero with a diagnostic.
func TestRunUnknownExperiment(t *testing.T) {
	var out, errb strings.Builder
	if code := run(&out, &errb, []string{"-exp", "nonesuch"}); code == 0 {
		t.Fatal("unknown experiment id exited 0")
	}
	if !strings.Contains(errb.String(), "nonesuch") {
		t.Errorf("diagnostic does not name the id: %s", errb.String())
	}
}

// repoBaselines locates the committed baselines directory relative to this
// package.
func repoBaselines(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("..", "..", "baselines"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("committed baselines missing: %v", err)
	}
	return dir
}

// TestCompareCommittedBaselinesPass is the positive regression-gate check:
// the deterministic engine must reproduce every committed baseline.
func TestCompareCommittedBaselinesPass(t *testing.T) {
	pinGOMAXPROCS(t, 1)
	var out, errb strings.Builder
	code := run(&out, &errb, []string{"-compare", repoBaselines(t), "-parallel", "1"})
	if code != 0 {
		t.Fatalf("committed baselines failed the gate (exit %d):\n%s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "10 baseline(s) reproduced exactly") {
		t.Errorf("missing summary line:\n%s", out.String())
	}
}

// TestCompareSlowedBaselineFails is the negative check: a synthetically
// slowed baseline (testdata/slowed inflates the Linux shootdown cell by
// ~37%) must trip the gate with a non-zero exit.
func TestCompareSlowedBaselineFails(t *testing.T) {
	pinGOMAXPROCS(t, 1)
	var out, errb strings.Builder
	code := run(&out, &errb, []string{"-compare", filepath.Join("testdata", "slowed"), "-parallel", "1"})
	if code == 0 {
		t.Fatalf("slowed baseline passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "1 cell(s) differ") {
		t.Errorf("failure output does not report the drifted cell:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "1210.0ns") {
		t.Errorf("failure output does not show the baseline cell:\n%s", out.String())
	}
}

// TestCompareMissingPath exits non-zero.
func TestCompareMissingPath(t *testing.T) {
	var out, errb strings.Builder
	if code := run(&out, &errb, []string{"-compare", filepath.Join("testdata", "nonesuch")}); code == 0 {
		t.Fatal("missing baseline path exited 0")
	}
}

// TestCompareHarnessSnapshotIsNotABaseline: BENCH_harness.json is a
// wall-clock snapshot with no experiment id or cells, so the gate fails to
// load it like any other file that is not a baseline.
func TestCompareHarnessSnapshotIsNotABaseline(t *testing.T) {
	var out, errb strings.Builder
	if code := run(&out, &errb, []string{"-compare", committedHarness(t), "-parallel", "1"}); code == 0 {
		t.Fatalf("harness snapshot passed the gate:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "not a bench baseline") {
		t.Errorf("diagnostic does not say the file is not a baseline: %s", errb.String())
	}
}

// committedHarness is the repo root's BENCH_harness.json.
func committedHarness(t *testing.T) string {
	t.Helper()
	path, err := filepath.Abs(filepath.Join("..", "..", "BENCH_harness.json"))
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareCommittedHarnessNotStale: the committed BENCH_harness.json
// must not be a GOMAXPROCS=1 recording, whose single-core speedups
// describe a machine where parallel dispatch cannot show a regression.
func TestCompareCommittedHarnessNotStale(t *testing.T) {
	data, err := os.ReadFile(committedHarness(t))
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		GoMaxProcs int               `json:"gomaxprocs"`
		Entries    []json.RawMessage `json:"entries"`
	}
	if err := json.Unmarshal(data, &h); err != nil {
		t.Fatal(err)
	}
	if len(h.Entries) == 0 {
		t.Fatal("committed BENCH_harness.json holds no entries")
	}
	if h.GoMaxProcs == 1 {
		t.Fatalf("committed BENCH_harness.json still records gomaxprocs=1; re-record per EXPERIMENTS.md")
	}
}
