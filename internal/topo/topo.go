// Package topo describes machine topology: sockets, cores, NUMA nodes and
// the inter-socket distances that drive IPI delivery and remote-memory
// latency. The two presets mirror Table 3 of the paper.
package topo

import (
	"fmt"
	"strings"
)

// CoreID identifies a logical core, 0-based and dense across the machine.
type CoreID int

// NodeID identifies a NUMA node. Each socket is one NUMA node.
type NodeID int

// Spec describes a machine. Cores are laid out socket-major: core c lives
// on socket c / CoresPerSocket.
type Spec struct {
	Name           string
	Sockets        int
	CoresPerSocket int

	// MemPerNodeBytes is the physical memory per NUMA node.
	MemPerNodeBytes int64

	// L1TLBEntries and L2TLBEntries size the per-core TLB levels.
	L1TLBEntries int
	L2TLBEntries int
}

// TwoSocket16 is the paper's primary machine: Intel E5-2630 v3, 2 sockets x
// 8 cores, 128 GB RAM, 64-entry L1 D-TLB (Table 3). The paper reports the
// L2 TLB "per socket"; we model the conventional per-core 1024-entry STLB.
func TwoSocket16() Spec {
	return Spec{
		Name:            "2-socket-16-core",
		Sockets:         2,
		CoresPerSocket:  8,
		MemPerNodeBytes: 64 << 30,
		L1TLBEntries:    64,
		L2TLBEntries:    1024,
	}
}

// EightSocket120 is the paper's large NUMA machine: Intel E7-8870 v2, 8
// sockets x 15 cores, 768 GB RAM (Table 3).
func EightSocket120() Spec {
	return Spec{
		Name:            "8-socket-120-core",
		Sockets:         8,
		CoresPerSocket:  15,
		MemPerNodeBytes: 96 << 30,
		L1TLBEntries:    64,
		L2TLBEntries:    512,
	}
}

// Custom builds a spec with the given shape and default TLB/memory sizing.
func Custom(sockets, coresPerSocket int) Spec {
	return Spec{
		Name:            fmt.Sprintf("%d-socket-%d-core", sockets, sockets*coresPerSocket),
		Sockets:         sockets,
		CoresPerSocket:  coresPerSocket,
		MemPerNodeBytes: 32 << 30,
		L1TLBEntries:    64,
		L2TLBEntries:    1024,
	}
}

// PaperNames lists the shape names of the paper's two machines, in the
// order the experiment tables sweep them.
func PaperNames() []string { return []string{"2x8", "8x15"} }

// paper resolves a paper machine's shape name or alias without
// allocating: the litmus corpus resolves one per run.
func paper(name string) (Spec, bool) {
	switch name {
	case "2x8", "small":
		return TwoSocket16(), true
	case "8x15", "large":
		return EightSocket120(), true
	}
	return Spec{}, false
}

// PaperByName resolves only the paper's machines: "2x8" (or "small") is
// TwoSocket16 and "8x15" (or "large") is EightSocket120. Surfaces whose
// corpus or baselines are defined on those two machines use it.
func PaperByName(name string) (Spec, error) {
	if s, ok := paper(name); ok {
		return s, nil
	}
	return Spec{}, fmt.Errorf("topo: unknown machine %q (want %s)", name, strings.Join(PaperNames(), " or "))
}

// ByName resolves a machine shape: a paper name (PaperByName), or "NxM"
// with N sockets of M cores each, N, M > 0 and at most MaxCores cores in
// all, as Custom. Only the canonical spelling is accepted, so "2x8x" or
// "02x08" is an error rather than a Custom look-alike of a paper machine.
func ByName(name string) (Spec, error) {
	if s, ok := paper(name); ok {
		return s, nil
	}
	var sockets, per int
	if n, err := fmt.Sscanf(name, "%dx%d", &sockets, &per); n == 2 && err == nil && sockets > 0 && per > 0 &&
		name == fmt.Sprintf("%dx%d", sockets, per) {
		s := Custom(sockets, per)
		if err := s.Validate(); err != nil {
			return Spec{}, fmt.Errorf("topo: bad machine %q: %w", name, err)
		}
		return s, nil
	}
	return Spec{}, fmt.Errorf("topo: bad machine %q (want %s, or NxM)", name, strings.Join(PaperNames(), ", "))
}

// SpreadCores picks n worker cores round-robin across the NUMA nodes, the
// first core of each node, then the second of each, and so on, skipping
// core 0, which drivers keep for their initiator, loader or swapper
// thread. Workers spread this way make every shootdown cross sockets. It
// fails when the machine has fewer than n cores besides core 0.
func (s Spec) SpreadCores(n int) ([]CoreID, error) {
	if n < 0 || n > s.NumCores()-1 {
		return nil, fmt.Errorf("topo: %s has %d cores besides core 0, so it cannot spread %d workers",
			s.Name, s.NumCores()-1, n)
	}
	out := make([]CoreID, 0, n)
	for idx := 0; len(out) < n; idx++ {
		for node := 0; node < s.NumNodes() && len(out) < n; node++ {
			if c := CoreID(node*s.CoresPerSocket + idx); c != 0 {
				out = append(out, c)
			}
		}
	}
	return out, nil
}

// Validate reports a descriptive error for malformed specs.
func (s Spec) Validate() error {
	switch {
	case s.Sockets <= 0:
		return fmt.Errorf("topo: %q: sockets must be positive, got %d", s.Name, s.Sockets)
	case s.CoresPerSocket <= 0:
		return fmt.Errorf("topo: %q: cores per socket must be positive, got %d", s.Name, s.CoresPerSocket)
	case s.Sockets > MaxCores/s.CoresPerSocket:
		return fmt.Errorf("topo: %q: %d sockets of %d cores exceed the %d cores a CoreMask covers",
			s.Name, s.Sockets, s.CoresPerSocket, MaxCores)
	case s.MemPerNodeBytes <= 0:
		return fmt.Errorf("topo: %q: memory per node must be positive, got %d", s.Name, s.MemPerNodeBytes)
	case s.L1TLBEntries <= 0 || s.L2TLBEntries < 0:
		return fmt.Errorf("topo: %q: invalid TLB sizing (L1=%d, L2=%d)", s.Name, s.L1TLBEntries, s.L2TLBEntries)
	}
	return nil
}

// NumCores is the total logical core count.
func (s Spec) NumCores() int { return s.Sockets * s.CoresPerSocket }

// NumNodes is the NUMA node count (one per socket).
func (s Spec) NumNodes() int { return s.Sockets }

// SocketOf returns the socket (== NUMA node) holding core c.
func (s Spec) SocketOf(c CoreID) int { return int(c) / s.CoresPerSocket }

// NodeOf returns the NUMA node holding core c.
func (s Spec) NodeOf(c CoreID) NodeID { return NodeID(s.SocketOf(c)) }

// Hops returns the interconnect hop count between the sockets of two cores:
// 0 for same socket, 1 for directly-linked sockets, 2 beyond that. On the
// 8-socket E7 the APIC message needs two QPI hops once more than 3 sockets
// apart, which is the knee in Fig 7; we model sockets as a ring of
// fully-linked 4-socket groups, so distance ≥ 4 costs two hops.
func (s Spec) Hops(a, b CoreID) int {
	return s.SocketHops(s.SocketOf(a), s.SocketOf(b))
}

// SocketHops is Hops at socket granularity (used by layers that place
// state per socket rather than per core, like page-table replication).
func (s Spec) SocketHops(sa, sb int) int {
	if sa == sb {
		return 0
	}
	d := sa - sb
	if d < 0 {
		d = -d
	}
	if d < 4 {
		return 1
	}
	return 2
}

// MaxHops is the largest hop count present in the machine.
func (s Spec) MaxHops() int {
	if s.Sockets <= 1 {
		return 0
	}
	if s.Sockets <= 4 {
		return 1
	}
	return 2
}
