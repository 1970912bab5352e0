package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden timeline files")

// TestGoldenTimelines pins the exact byte output of both scenarios: the
// timelines are rendered from the deterministic simulator, so any drift is
// either a real behaviour change (update the goldens deliberately with
// `go test ./cmd/latr-trace -update`) or a lost-determinism bug.
func TestGoldenTimelines(t *testing.T) {
	for _, scenario := range []string{"munmap", "autonuma"} {
		t.Run(scenario, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if code := run(&out, &errOut, []string{"-scenario", scenario}); code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, errOut.String())
			}
			golden := filepath.Join("testdata", scenario+".golden")
			if *update {
				if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("%s timeline drifted from golden (re-run with -update if intended)\n--- got ---\n%s\n--- want ---\n%s",
					scenario, out.String(), want)
			}
		})
	}
}

// TestGoldenPerfetto pins the -perfetto JSON export byte for byte and
// checks it is a well-formed Chrome trace-event document (the format
// ui.perfetto.dev loads): a traceEvents array whose entries all carry a
// phase, and at least one async begin/end pair and one complete slice.
func TestGoldenPerfetto(t *testing.T) {
	for _, scenario := range []string{"munmap", "autonuma"} {
		t.Run(scenario, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if code := run(&out, &errOut, []string{"-scenario", scenario, "-perfetto"}); code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, errOut.String())
			}

			var doc struct {
				DisplayTimeUnit string `json:"displayTimeUnit"`
				TraceEvents     []struct {
					Ph   string  `json:"ph"`
					Pid  int     `json:"pid"`
					Tid  int     `json:"tid"`
					Ts   float64 `json:"ts"`
					Name string  `json:"name"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
				t.Fatalf("-perfetto output is not valid JSON: %v", err)
			}
			if len(doc.TraceEvents) == 0 {
				t.Fatal("no trace events")
			}
			phases := map[string]int{}
			for _, e := range doc.TraceEvents {
				if e.Ph == "" || e.Name == "" {
					t.Fatalf("event missing ph/name: %+v", e)
				}
				phases[e.Ph]++
			}
			if phases["b"] == 0 || phases["b"] != phases["e"] {
				t.Errorf("async begin/end mismatch: %d b vs %d e", phases["b"], phases["e"])
			}
			if phases["X"] == 0 {
				t.Error("no complete phase slices")
			}

			golden := filepath.Join("testdata", scenario+".perfetto.golden")
			if *update {
				if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("%s perfetto export drifted from golden (re-run with -update if intended)", scenario)
			}
		})
	}
}

// TestSeedChangesTimeline: the -seed flag must actually reach the
// simulation (a timeline identical across seeds would mean the flag is
// wired to nothing).
func TestSeedChangesTimeline(t *testing.T) {
	var a, b, errOut bytes.Buffer
	if code := run(&a, &errOut, []string{"-scenario", "munmap", "-seed", "1"}); code != 0 {
		t.Fatal(errOut.String())
	}
	if code := run(&b, &errOut, []string{"-scenario", "munmap", "-seed", "1"}); code != 0 {
		t.Fatal(errOut.String())
	}
	if a.String() != b.String() {
		t.Error("same seed produced different timelines")
	}
}

func TestBadArgs(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(&out, &errOut, []string{"-scenario", "nope"}); code != 1 {
		t.Errorf("unknown scenario: exit %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "unknown scenario") {
		t.Errorf("stderr %q", errOut.String())
	}
	errOut.Reset()
	if code := run(&out, &errOut, []string{"-definitely-not-a-flag"}); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
	errOut.Reset()
	if code := run(&out, &errOut, []string{"-h"}); code != 0 {
		t.Errorf("-h: exit %d, want 0", code)
	}
	if !strings.Contains(errOut.String(), "-scenario") {
		t.Errorf("-h printed no usage: %q", errOut.String())
	}
}
