package obs

import (
	"encoding/json"
	"strings"
	"testing"

	"latr/internal/metrics"
	"latr/internal/sim"
	"latr/internal/topo"
)

// buildSpans makes a collector with two closed, retained spans.
func buildSpans(t *testing.T) *Collector {
	t.Helper()
	col := NewCollector("latr", metrics.NewRegistry(), 0, 16)
	var mask topo.CoreMask
	mask.Set(1)

	a := col.Begin(KindMunmap, 0, 0x1000, 2, 1500)
	a.SetTargets(mask)
	a.Mark(PhaseInitiate, 0, 1500, 250)
	a.MarkLazy(PhaseSend, 0, 1750, 132)
	a.MarkLazy(PhaseInvalidate, 1, 5000, 158)
	a.MarkLazy(PhaseAck, 1, 5158, 0)
	a.MarkLazy(PhaseReclaim, 0, 9000, 40)
	a.Release(9040)

	b := col.Begin(KindSync, 2, 0x8000, 1, 700)
	b.Mark(PhaseInitiate, 2, 700, 100)
	b.Release(800)
	return col
}

// TestWritePerfettoShape: the export is valid JSON with process/thread
// metadata, spans ordered by open time, and microsecond timestamps built
// with integer math.
func TestWritePerfettoShape(t *testing.T) {
	col := buildSpans(t)
	var sb strings.Builder
	if err := WritePerfetto(&sb, Group{Label: "run", Pid: 7, Spans: col.Retained()}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !json.Valid([]byte(out)) {
		t.Fatalf("invalid JSON:\n%s", out)
	}

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatal(err)
	}
	// Span b opened first (700 < 1500): its "b" event must precede span
	// a's, regardless of close order.
	var asyncNames []string
	for _, e := range doc.TraceEvents {
		if e["ph"] == "b" {
			asyncNames = append(asyncNames, e["name"].(string))
		}
		if pid, ok := e["pid"].(float64); !ok || int(pid) != 7 {
			t.Errorf("event with wrong pid: %v", e)
		}
	}
	if len(asyncNames) != 2 || !strings.HasPrefix(asyncNames[0], "sync") {
		t.Errorf("async events not sorted by open time: %v", asyncNames)
	}
	// 1750 ns -> "1.750" µs, integer-rendered.
	if !strings.Contains(out, `"ts":1.750`) {
		t.Error("missing integer-math microsecond timestamp 1.750")
	}
	if !strings.Contains(out, `"policy":"latr"`) {
		t.Error("span args missing policy provenance")
	}
	if !strings.Contains(out, `"targets":"{1}"`) {
		t.Error("span args missing target mask")
	}
	if !strings.Contains(out, "(lazy)") {
		t.Error("lazy phase slices not labelled")
	}
}

// TestWritePerfettoDeterminism: same spans, same bytes.
func TestWritePerfettoDeterminism(t *testing.T) {
	render := func() string {
		col := buildSpans(t)
		var sb strings.Builder
		if err := WritePerfetto(&sb, Group{Label: "run", Pid: 1, Spans: col.Retained()}); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if render() != render() {
		t.Error("two identical span sets rendered different bytes")
	}
}

// TestWritePerfettoEmpty: zero groups and empty groups still produce a
// valid document.
func TestWritePerfettoEmpty(t *testing.T) {
	var sb strings.Builder
	if err := WritePerfetto(&sb); err != nil {
		t.Fatal(err)
	}
	if !json.Valid([]byte(sb.String())) {
		t.Fatalf("invalid empty document: %s", sb.String())
	}
	sb.Reset()
	if err := WritePerfetto(&sb, Group{Label: "empty", Pid: 1}); err != nil {
		t.Fatal(err)
	}
	if !json.Valid([]byte(sb.String())) {
		t.Fatalf("invalid empty-group document: %s", sb.String())
	}
}

// TestUsec covers the integer microsecond rendering, including negatives.
func TestUsec(t *testing.T) {
	for _, tc := range []struct {
		ns   int64
		want string
	}{
		{0, "0.000"},
		{1, "0.001"},
		{999, "0.999"},
		{1000, "1.000"},
		{1234567, "1234.567"},
		{-1500, "-1.500"},
	} {
		if got := usec(sim.Time(tc.ns)); got != tc.want {
			t.Errorf("usec(%d) = %q, want %q", tc.ns, got, tc.want)
		}
	}
}

// TestJSONStr escapes quotes, backslashes and control bytes.
func TestJSONStr(t *testing.T) {
	got := jsonStr("a\"b\\c\nd")
	want := "\"a\\\"b\\\\c\\u000ad\""
	if got != want {
		t.Errorf("jsonStr = %s, want %s", got, want)
	}
	var s string
	if err := json.Unmarshal([]byte(got), &s); err != nil || s != "a\"b\\c\nd" {
		t.Errorf("round trip failed: %q %v", s, err)
	}
}
