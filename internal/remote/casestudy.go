package remote

import (
	"latr/internal/kernel"
	"latr/internal/mem"
	"latr/internal/sim"
	"latr/internal/swap"
	"latr/internal/topo"
	"latr/internal/workload"
)

// FramesPerNode is each node's memory in the memcached case study: 1,500
// frames, fewer than the KV arena's 4,096 pages, so the arena cannot fit
// locally and cold GETs swap in over RDMA (the Infiniswap precondition),
// while the 800-page hot set fits under the swapper's high watermark.
const FramesPerNode = 1500

// Machine returns spec with each node shrunk to FramesPerNode frames.
func Machine(spec topo.Spec) topo.Spec {
	spec.MemPerNodeBytes = FramesPerNode * mem.PageSize
	return spec
}

// Memcached sets the §6.2 case study up on k, a kernel built on a Machine
// spec: a swapper over a remote backend of cfg that checks every
// millisecond and, once a node has fewer than 300 free frames, evicts in
// 512-page batches until 500 are free; and the memcached server on
// workers, seeded seed+1, whose process the swapper scans. The caller
// runs k.
func Memcached(k *kernel.Kernel, workers []topo.CoreID, seed uint64, cfg Config) *workload.Memcached {
	s := swap.NewWithBackend(swap.Config{
		LowWatermarkFrames:  300,
		HighWatermarkFrames: 500,
		ScanPeriod:          sim.Millisecond,
		BatchPages:          512,
	}, New(cfg))
	s.Install(k)
	mc := workload.DefaultMemcachedConfig(workers)
	mc.Seed = seed + 1
	w := workload.NewMemcached(mc)
	w.Setup(k)
	s.Register(w.Proc())
	return w
}
