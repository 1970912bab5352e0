package kernel_test

import (
	"runtime"
	"testing"
	"unsafe"

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

// perBuild reports the heap bytes and objects one build of spec
// allocates, averaged over a few builds.
func perBuild(spec topo.Spec) (bytes, objects uint64) {
	const builds = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < builds; i++ {
		sink = newLATRMachine(spec)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / builds, (after.Mallocs - before.Mallocs) / builds
}

var sink *kernel.Kernel

func TestKernelNewAllocationBudget(t *testing.T) {
	// Per-core state is allocated on first use: TLB arrays grow with the
	// lines cached and LATR state arrays appear on a core's first record.
	// Sizing them to capacity up front cost 4.8 MB per 8x15 build and
	// 1.07 MB per 2x8 build; these bounds keep it from creeping back.
	// Metric handles and span histogram names are resolved on first
	// write, not here: the 2x8 build makes 169 objects, and building the
	// collector's 56 names or resolving the kernel's handles eagerly would
	// add one object per name or handle.
	for _, c := range []struct {
		name    string
		spec    topo.Spec
		limit   uint64
		objects uint64 // 0: no object ceiling
	}{
		{"8x15", topo.EightSocket120(), 256 << 10, 0},
		{"2x8", topo.TwoSocket16(), 64 << 10, 180},
	} {
		bytes, objects := perBuild(c.spec)
		if bytes > c.limit {
			t.Errorf("kernel.New(%s, latr, audit) allocates %d bytes, budget %d", c.name, bytes, c.limit)
		}
		if c.objects > 0 && objects > c.objects {
			t.Errorf("kernel.New(%s, latr, audit) allocates %d objects, ceiling %d", c.name, objects, c.objects)
		}
	}
}

// TestCoreSize keeps Core within the allocator's 256-byte size class, one
// of which every core of every machine costs. Per-kernel state, metric
// handles included, belongs on Kernel or the policy instead.
func TestCoreSize(t *testing.T) {
	if n := unsafe.Sizeof(kernel.Core{}); n > 256 {
		t.Fatalf("kernel.Core is %d bytes, want at most 256", n)
	}
}

func BenchmarkKernelNew(b *testing.B) {
	spec := topo.EightSocket120()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = newLATRMachine(spec)
	}
}
