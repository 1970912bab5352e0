package kernel_test

import (
	"runtime"
	"testing"

	"latr/internal/core"
	"latr/internal/cost"
	"latr/internal/kernel"
	"latr/internal/topo"
)

// newLATRMachine builds an audited LATR machine — the configuration every
// litmus run constructs — and returns it so the build cannot be elided.
func newLATRMachine(spec topo.Spec) *kernel.Kernel {
	return kernel.New(spec, cost.Default(spec), core.New(core.Config{}), kernel.Options{Audit: true, Seed: 1})
}

// bytesPerBuild reports the heap bytes one build of spec allocates,
// averaged over a few builds.
func bytesPerBuild(spec topo.Spec) uint64 {
	const builds = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < builds; i++ {
		sink = newLATRMachine(spec)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / builds
}

var sink *kernel.Kernel

func TestKernelNewAllocationBudget(t *testing.T) {
	// Per-core state is allocated on first use: TLB arrays grow with the
	// lines cached and LATR state arrays appear on a core's first record.
	// Sizing them to capacity up front cost 4.8 MB per 8x15 build and
	// 1.07 MB per 2x8 build; these bounds keep it from creeping back.
	for _, c := range []struct {
		name  string
		spec  topo.Spec
		limit uint64
	}{
		{"8x15", topo.EightSocket120(), 256 << 10},
		{"2x8", topo.TwoSocket16(), 64 << 10},
	} {
		if got := bytesPerBuild(c.spec); got > c.limit {
			t.Errorf("kernel.New(%s, latr, audit) allocates %d bytes, budget %d", c.name, got, c.limit)
		}
	}
}

func BenchmarkKernelNew(b *testing.B) {
	spec := topo.EightSocket120()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = newLATRMachine(spec)
	}
}
