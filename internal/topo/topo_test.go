package topo

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestPresets(t *testing.T) {
	two := TwoSocket16()
	if err := two.Validate(); err != nil {
		t.Fatal(err)
	}
	if two.NumCores() != 16 || two.NumNodes() != 2 {
		t.Fatalf("TwoSocket16: %d cores / %d nodes", two.NumCores(), two.NumNodes())
	}
	eight := EightSocket120()
	if err := eight.Validate(); err != nil {
		t.Fatal(err)
	}
	if eight.NumCores() != 120 || eight.NumNodes() != 8 {
		t.Fatalf("EightSocket120: %d cores / %d nodes", eight.NumCores(), eight.NumNodes())
	}
}

func TestMachineByName(t *testing.T) {
	for name, want := range map[string]Spec{
		"2x8": TwoSocket16(), "small": TwoSocket16(),
		"8x15": EightSocket120(), "large": EightSocket120(),
		"4x4": Custom(4, 4), "2x4": Custom(2, 4), "9x9": Custom(9, 9),
	} {
		if got, err := ByName(name); err != nil || got != want {
			t.Errorf("ByName(%q) = %+v, %v; want %+v", name, got, err, want)
		}
	}
	for _, name := range []string{"", "x", "0x4", "4x0", "-1x8", "axb", "20x20", "257x1", "1x257", "4294967296x4294967296", "2x8x", "02x08", "8x15 "} {
		if _, err := ByName(name); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", name)) {
			t.Errorf("ByName(%q) error = %v, want one naming the input", name, err)
		}
	}
}

// TestPaperByName checks that the paper-only lookup takes exactly the
// paper's names and aliases, and that PaperNames lists both machines.
func TestPaperByName(t *testing.T) {
	if got := PaperNames(); !slices.Equal(got, []string{"2x8", "8x15"}) {
		t.Fatalf("PaperNames() = %v", got)
	}
	for _, name := range append(PaperNames(), "small", "large") {
		want, _ := ByName(name)
		if got, err := PaperByName(name); err != nil || got != want {
			t.Errorf("PaperByName(%q) = %+v, %v; want %+v", name, got, err, want)
		}
	}
	for _, name := range []string{"9x9", "2x4", ""} {
		if _, err := PaperByName(name); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", name)) {
			t.Errorf("PaperByName(%q) error = %v, want one naming the input", name, err)
		}
	}
}

// TestSpreadCores pins the worker order the remote experiment, the tuner's
// cells, the cluster and latr-sim -remote share: one core per node per
// round, skipping core 0.
func TestSpreadCores(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		n    int
		want []CoreID
	}{
		{TwoSocket16(), 12, []CoreID{8, 1, 9, 2, 10, 3, 11, 4, 12, 5, 13, 6}},
		{TwoSocket16(), 15, []CoreID{8, 1, 9, 2, 10, 3, 11, 4, 12, 5, 13, 6, 14, 7, 15}},
		{EightSocket120(), 12, []CoreID{15, 30, 45, 60, 75, 90, 105, 1, 16, 31, 46, 61}},
		{EightSocket120(), 13, []CoreID{15, 30, 45, 60, 75, 90, 105, 1, 16, 31, 46, 61, 76}},
		{Custom(2, 4), 4, []CoreID{4, 1, 5, 2}},
		{Custom(1, 4), 0, []CoreID{}},
	} {
		got, err := tc.spec.SpreadCores(tc.n)
		if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("%s.SpreadCores(%d) = %v, %v; want %v", tc.spec.Name, tc.n, got, err, tc.want)
		}
	}
	for _, tc := range []struct {
		spec Spec
		n    int
	}{{TwoSocket16(), 16}, {Custom(2, 2), 4}, {Custom(1, 1), 1}, {TwoSocket16(), -1}} {
		if got, err := tc.spec.SpreadCores(tc.n); err == nil {
			t.Errorf("%s.SpreadCores(%d) = %v, want an error", tc.spec.Name, tc.n, got)
		}
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	bad := []Spec{
		{Name: "no-sockets", CoresPerSocket: 4, MemPerNodeBytes: 1, L1TLBEntries: 1},
		{Name: "no-cores", Sockets: 2, MemPerNodeBytes: 1, L1TLBEntries: 1},
		{Name: "no-mem", Sockets: 2, CoresPerSocket: 4, L1TLBEntries: 1},
		{Name: "no-tlb", Sockets: 2, CoresPerSocket: 4, MemPerNodeBytes: 1},
		{Name: "over-mask", Sockets: 3, CoresPerSocket: 86, MemPerNodeBytes: 1, L1TLBEntries: 1},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%s) accepted invalid spec", s.Name)
		}
	}
}

func TestSocketOf(t *testing.T) {
	s := TwoSocket16()
	for c := 0; c < 8; c++ {
		if s.SocketOf(CoreID(c)) != 0 {
			t.Fatalf("core %d should be socket 0", c)
		}
	}
	for c := 8; c < 16; c++ {
		if s.SocketOf(CoreID(c)) != 1 {
			t.Fatalf("core %d should be socket 1", c)
		}
	}
}

func TestHops(t *testing.T) {
	two := TwoSocket16()
	if h := two.Hops(0, 7); h != 0 {
		t.Errorf("same-socket hops = %d", h)
	}
	if h := two.Hops(0, 8); h != 1 {
		t.Errorf("cross-socket hops = %d", h)
	}
	if two.MaxHops() != 1 {
		t.Errorf("two-socket MaxHops = %d", two.MaxHops())
	}

	eight := EightSocket120()
	if h := eight.Hops(0, 15); h != 1 {
		t.Errorf("adjacent-socket hops = %d", h)
	}
	// Sockets 0 and 4 are 4 apart: two hops — the Fig 7 knee.
	if h := eight.Hops(0, 60); h != 2 {
		t.Errorf("distant-socket hops = %d, want 2", h)
	}
	if eight.MaxHops() != 2 {
		t.Errorf("eight-socket MaxHops = %d", eight.MaxHops())
	}
	if Custom(1, 4).MaxHops() != 0 {
		t.Error("single-socket MaxHops != 0")
	}
}

// TestEightSocketDistanceMatrix pins the full 8x8 socket-distance matrix
// of the large machine: a zero diagonal, symmetry, and hop counts that
// never decrease as sockets get further apart — the properties the
// replica-placement and IPI layers lean on when they charge by
// SocketHops.
func TestEightSocketDistanceMatrix(t *testing.T) {
	s := EightSocket120()
	n := s.Sockets
	for a := 0; a < n; a++ {
		if h := s.SocketHops(a, a); h != 0 {
			t.Errorf("SocketHops(%d,%d) = %d, want 0 on the diagonal", a, a, h)
		}
		for b := 0; b < n; b++ {
			ab, ba := s.SocketHops(a, b), s.SocketHops(b, a)
			if ab != ba {
				t.Errorf("asymmetric: SocketHops(%d,%d)=%d but SocketHops(%d,%d)=%d", a, b, ab, b, a, ba)
			}
			if a != b && ab == 0 {
				t.Errorf("SocketHops(%d,%d) = 0 for distinct sockets", a, b)
			}
			if ab > s.MaxHops() {
				t.Errorf("SocketHops(%d,%d) = %d exceeds MaxHops %d", a, b, ab, s.MaxHops())
			}
			// Core-granularity Hops must agree with the socket matrix for
			// every core pair drawn from these sockets.
			if got := s.Hops(CoreID(a*s.CoresPerSocket), CoreID(b*s.CoresPerSocket+s.CoresPerSocket-1)); got != ab {
				t.Errorf("Hops disagrees with SocketHops(%d,%d): %d vs %d", a, b, got, ab)
			}
		}
		// Monotone in distance: walking away from socket a never lowers the
		// hop count.
		for b := a + 1; b < n-1; b++ {
			if s.SocketHops(a, b) > s.SocketHops(a, b+1) {
				t.Errorf("hops shrink with distance: SocketHops(%d,%d)=%d > SocketHops(%d,%d)=%d",
					a, b, s.SocketHops(a, b), a, b+1, s.SocketHops(a, b+1))
			}
		}
	}
	// The Fig 7 knee: exactly the pairs >= 4 apart pay the second hop.
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			d := a - b
			if d < 0 {
				d = -d
			}
			want := 0
			switch {
			case d >= 4:
				want = 2
			case d >= 1:
				want = 1
			}
			if got := s.SocketHops(a, b); got != want {
				t.Errorf("SocketHops(%d,%d) = %d, want %d (distance %d)", a, b, got, want, d)
			}
		}
	}
}

func TestMaskBasics(t *testing.T) {
	var m CoreMask
	if !m.Empty() {
		t.Fatal("zero mask not empty")
	}
	m.Set(0)
	m.Set(63)
	m.Set(64)
	m.Set(200)
	if m.Count() != 4 {
		t.Fatalf("Count = %d, want 4", m.Count())
	}
	for _, c := range []CoreID{0, 63, 64, 200} {
		if !m.Has(c) {
			t.Fatalf("mask missing core %d", c)
		}
	}
	if m.Has(1) || m.Has(65) {
		t.Fatal("mask has cores never set")
	}
	m.Clear(63)
	if m.Has(63) || m.Count() != 3 {
		t.Fatal("Clear failed")
	}
}

func TestMaskSetClearRoundTrip(t *testing.T) {
	if err := quick.Check(func(raw uint8) bool {
		c := CoreID(raw)
		var m CoreMask
		m.Set(c)
		ok := m.Has(c) && m.Count() == 1
		m.Clear(c)
		return ok && m.Empty()
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestMaskAlgebra(t *testing.T) {
	a := MaskOf(1, 2, 3)
	b := MaskOf(3, 4)
	if got := a.Or(b).Count(); got != 4 {
		t.Errorf("Or count = %d", got)
	}
	if got := a.And(b); !got.Has(3) || got.Count() != 1 {
		t.Errorf("And = %v", got)
	}
	if got := a.AndNot(b); got.Has(3) || got.Count() != 2 {
		t.Errorf("AndNot = %v", got)
	}
}

func TestMaskForEachOrder(t *testing.T) {
	m := MaskOf(200, 5, 64, 0)
	var got []CoreID
	m.ForEach(func(c CoreID) { got = append(got, c) })
	want := []CoreID{0, 5, 64, 200}
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order = %v, want %v", got, want)
		}
	}
}

func TestMaskString(t *testing.T) {
	if s := MaskOf(1, 12, 103).String(); s != "{1,12,103}" {
		t.Errorf("String = %q", s)
	}
	if s := (CoreMask{}).String(); s != "{}" {
		t.Errorf("empty String = %q", s)
	}
}

func TestMaskCores(t *testing.T) {
	m := MaskOf(7, 3)
	cs := m.Cores()
	if len(cs) != 2 || cs[0] != 3 || cs[1] != 7 {
		t.Errorf("Cores = %v", cs)
	}
}
