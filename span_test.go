package latr_test

import (
	"encoding/json"
	"strings"
	"testing"

	"latr"
)

// runSpanWorkload drives one munmap-heavy script on a small machine with
// span retention enabled and returns the finished system.
func runSpanWorkload(t *testing.T, policy latr.PolicyKind) *latr.System {
	t.Helper()
	sys := latr.NewSystem(latr.Config{
		Machine:   latr.CustomMachine(1, 4),
		Policy:    policy,
		SpanLimit: 1024,
	})
	p := sys.NewProcess()
	for c := 0; c < 4; c++ {
		p.Spawn(latr.CoreID(c), latr.Script(
			func(th *latr.Thread) latr.Op {
				return latr.Mmap(2, true).Populate(-1)
			},
			func(th *latr.Thread) latr.Op {
				if th.LastErr != nil {
					t.Fatalf("mmap: %v", th.LastErr)
				}
				return latr.Munmap(th.LastAddr, 2)
			},
			func(th *latr.Thread) latr.Op { return latr.Op{} },
		))
	}
	sys.Run(20 * latr.Millisecond)
	return sys
}

// TestSpansThroughPublicAPI: a munmap on each core yields one retained,
// closed span per core with the policy stamped on the collector.
func TestSpansThroughPublicAPI(t *testing.T) {
	sys := runSpanWorkload(t, latr.PolicyLATR)
	col := sys.Spans()
	if col == nil {
		t.Fatal("Spans() returned nil")
	}
	if col.OpenSpans() != 0 {
		t.Errorf("%d spans still open after the run drained", col.OpenSpans())
	}
	spans := col.Retained()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4 (one munmap per core)", len(spans))
	}
	for _, sp := range spans {
		if !sp.Lazy {
			t.Errorf("LATR span %d not marked lazy", sp.ID)
		}
		if len(sp.Events) == 0 {
			t.Errorf("span %d closed with no phase events", sp.ID)
		}
	}
	if col.Policy() != "latr" {
		t.Errorf("collector policy = %q", col.Policy())
	}
}

// TestSpanLimitZeroRetainsNothing: the default config keeps the hot path
// retention-free while metrics still flow.
func TestSpanLimitZeroRetainsNothing(t *testing.T) {
	sys := latr.NewSystem(latr.Config{Policy: latr.PolicyLinux})
	p := sys.NewProcess()
	p.Spawn(0, latr.Script(
		func(th *latr.Thread) latr.Op {
			return latr.Mmap(1, true).Populate(-1)
		},
		func(th *latr.Thread) latr.Op { return latr.Munmap(th.LastAddr, 1) },
		func(th *latr.Thread) latr.Op { return latr.Op{} },
	))
	sys.Run(5 * latr.Millisecond)
	if n := len(sys.Spans().Retained()); n != 0 {
		t.Errorf("SpanLimit 0 retained %d spans", n)
	}
	if sys.Metrics().Counter("span.closed") == 0 {
		t.Error("span metrics not recorded with retention off")
	}
	if sys.Metrics().Perc("span.linux.munmap.total") == nil {
		t.Error("per-policy phase histogram missing")
	}
}

// TestWritePerfettoFacade: the system-level export is a loadable Chrome
// trace-event document naming the policy.
func TestWritePerfettoFacade(t *testing.T) {
	sys := runSpanWorkload(t, latr.PolicyLinux)
	var sb strings.Builder
	if err := sys.WritePerfetto(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("WritePerfetto output not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events exported")
	}
	if !strings.Contains(sb.String(), `"linux"`) {
		t.Error("policy name missing from export")
	}
}

// TestSpanDigestDeterminism: the per-policy span metrics digest — phase
// histograms included — is byte-identical across same-seed reruns, for
// every policy. This is the acceptance criterion that makes span overhead
// auditable: observability must not perturb the simulation.
func TestSpanDigestDeterminism(t *testing.T) {
	for _, pk := range []latr.PolicyKind{latr.PolicyLinux, latr.PolicyLATR, latr.PolicyABIS} {
		a := runSpanWorkload(t, pk).Spans().Digest()
		b := runSpanWorkload(t, pk).Spans().Digest()
		if a != b {
			t.Errorf("%s: span digest differs across same-seed reruns: %#x vs %#x", pk, a, b)
		}
	}
}

// TestFigPerfettoWrappers: the figure exports build without error and
// carry both a sync and a lazy policy group.
func TestFigPerfettoWrappers(t *testing.T) {
	out, err := latr.Fig2Perfetto(latr.ExperimentOptions{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig2 linux", "fig2 latr"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig2Perfetto missing group %q", want)
		}
	}
	if !json.Valid([]byte(out)) {
		t.Error("Fig2Perfetto output is not valid JSON")
	}
}
