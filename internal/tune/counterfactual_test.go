package tune

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden counterfactual diffs")

// TestCounterfactualGolden pins the rendered span-level diff for one
// recorded seed under two knob perturbations, byte for byte. The diffs
// come from the deterministic simulator, so drift is either a deliberate
// behaviour change (refresh with `go test ./internal/tune -update`) or a
// lost-determinism bug — the same contract as the latr-trace timelines.
func TestCounterfactualGolden(t *testing.T) {
	for _, tc := range []struct {
		name  string
		knob  string
		value int64
	}{
		// A 4-deep queue forces most quiesces onto the sync-IPI path.
		{"queuedepth", "QueueDepth", 4},
		// Cutoff 1 turns every multi-page invalidation into a full flush.
		{"fullflush", "FullFlushThreshold", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := Counterfactual(CounterfactualConfig{
				Cell:  Cell{Workload: "churn", Machine: "2x8"},
				Seed:  7,
				Quick: true,
				Knob:  tc.knob,
				Value: tc.value,
			})
			if err != nil {
				t.Fatal(err)
			}
			got := d.Render()
			golden := filepath.Join("testdata", "counterfactual_"+tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diff drifted from golden (re-run with -update if intended)\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestCounterfactualMatchesEverySpan: the perturbations above change
// address recycling, but span identity is program order — every span
// must still be matched up across the runs.
func TestCounterfactualMatchesEverySpan(t *testing.T) {
	d, err := Counterfactual(CounterfactualConfig{
		Cell: Cell{Workload: "churn", Machine: "2x8"}, Seed: 7, Quick: true,
		Knob: "QueueDepth", Value: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.BaseOnly != 0 || d.PertOnly != 0 {
		t.Errorf("unmatched spans: base-only=%d pert-only=%d", d.BaseOnly, d.PertOnly)
	}
	if d.Matched == 0 || d.Matched != d.BaseSpans {
		t.Errorf("matched %d of %d base spans", d.Matched, d.BaseSpans)
	}
	if d.NewSync == 0 {
		t.Error("QueueDepth 64->4 produced no newly-sync quiesces")
	}
}

func TestCounterfactualRejectsBadKnobs(t *testing.T) {
	_, err := Counterfactual(CounterfactualConfig{
		Cell: Cell{Workload: "churn", Machine: "2x8"}, Seed: 7, Quick: true,
		Knob: "NoSuchKnob", Value: 1,
	})
	if err == nil || !strings.Contains(err.Error(), "unknown knob") {
		t.Fatalf("unknown knob not rejected: %v", err)
	}
	_, err = Counterfactual(CounterfactualConfig{
		Cell: Cell{Workload: "churn", Machine: "2x8"}, Seed: 7, Quick: true,
		Knob: "QueueDepth", Value: 100000,
	})
	if err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("out-of-bounds value not rejected: %v", err)
	}
}

// TestCounterfactualRejectsBadCells checks that a cell naming an unknown
// workload or a machine other than the paper's two is an error before
// anything runs.
func TestCounterfactualRejectsBadCells(t *testing.T) {
	for _, c := range []Cell{
		{Workload: "nope", Machine: "2x8"},
		{Workload: "churn", Machine: "9x9"},
		{Workload: "memcached", Machine: ""},
	} {
		_, err := Counterfactual(CounterfactualConfig{Cell: c, Seed: 7, Quick: true, Knob: "QueueDepth", Value: 4})
		if err == nil || !strings.Contains(err.Error(), c.String()) {
			t.Errorf("cell %s: error = %v, want one naming the cell", c, err)
		}
	}
}
