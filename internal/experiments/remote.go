package experiments

import (
	"fmt"

	"latr/internal/cost"
	"latr/internal/fan"
	"latr/internal/kernel"
	"latr/internal/remote"
	"latr/internal/sim"
	"latr/internal/swap"
	"latr/internal/topo"
	"latr/internal/workload"
)

// remoteMemFramesPerNode shrinks each node's memory so the KV arena
// (4096 pages) cannot fit locally — the Infiniswap precondition. The hot
// set (800 pages) still fits comfortably under the high watermark.
const remoteMemFramesPerNode = 1500

// remoteWorkerCount is the number of memcached server threads; they are
// spread round-robin across sockets so evictions shoot down cross-socket
// TLBs on both reference machines.
const remoteWorkerCount = 12

// remoteResult is one remote-memory paging run.
type remoteResult struct {
	ReqPerSec      float64
	P50, P99, P999 sim.Time
	SwapOuts       uint64
	SwapIns        uint64
}

// runRemoteMemory executes the §6.2 Infiniswap case study: the memcached
// server's slab arena exceeds local memory, cold GETs swap in over RDMA,
// and the swapper concurrently evicts — with the coherence policy's
// shootdown either on (Linux/ABIS) or off (LATR) the eviction critical
// path.
func runRemoteMemory(machine, policy string, dur sim.Time, o Options) remoteResult {
	spec := mustMachine(machine)
	workers, err := spec.SpreadCores(remoteWorkerCount)
	if err != nil {
		panic(err)
	}
	spec.MemPerNodeBytes = remoteMemFramesPerNode * 4096
	k := kernel.New(spec, cost.Default(spec), mustPolicy(policy), kernel.Options{
		Seed:            o.Seed ^ 0x9e3779b9,
		CheckInvariants: o.CheckInvariants,
		TraceLimit:      o.TraceLimit,
	})
	s := swap.NewWithBackend(swap.Config{
		LowWatermarkFrames:  300,
		HighWatermarkFrames: 500,
		ScanPeriod:          sim.Millisecond,
		BatchPages:          512,
	}, remote.New(remote.Config{}))
	s.Install(k)

	cfg := workload.DefaultMemcachedConfig(workers)
	cfg.Seed = o.Seed + 1
	w := workload.NewMemcached(cfg)
	w.Setup(k)
	s.Register(w.Proc())

	k.Run(dur)
	if !w.Loaded() {
		panic(fmt.Sprintf("experiments: remote(%s, %s) never finished warm-up", machine, policy))
	}
	lat := w.Latency()
	return remoteResult{
		ReqPerSec: float64(w.Requests()) / dur.Seconds(),
		P50:       lat.P50(),
		P99:       lat.P99(),
		P999:      lat.P999(),
		SwapOuts:  k.Metrics.Counter("swap.out"),
		SwapIns:   k.Metrics.Counter("swap.in"),
	}
}

// RemoteMemory reproduces the §6.2 Infiniswap case study: memcached
// request latency under remote-memory paging, both reference machines,
// Linux vs LATR vs ABIS.
//
// Paper: LATR improves memcached's 99th-percentile latency by up to ~70%
// under Infiniswap, because Linux's synchronous shootdown gates every
// swap-out while LATR overlaps the RDMA write with lazy invalidation.
func RemoteMemory(o Options) *Table {
	t := &Table{
		ID:      "remote",
		Title:   "Remote-memory paging (Infiniswap case study): memcached tail latency",
		Columns: []string{"machine", "policy", "req/s", "p50", "p99", "p99.9", "swap-out", "swap-in"},
	}
	dur := o.scaleT(500*sim.Millisecond, 150*sim.Millisecond)
	machines := topo.PaperNames()
	policies := []string{"linux", "abis", "latr"}
	type job struct {
		machine string
		policy  string
	}
	jobs := make([]job, 0, len(machines)*len(policies))
	for _, m := range machines {
		for _, p := range policies {
			jobs = append(jobs, job{m, p})
		}
	}
	res := fan.Run(o.workers(), jobs, func(_ int, j job) remoteResult {
		return runRemoteMemory(j.machine, j.policy, dur, o)
	})
	for i, j := range jobs {
		r := res[i]
		t.AddRow(j.machine, j.policy,
			fmtRate(r.ReqPerSec),
			fmtUS(float64(r.P50)), fmtUS(float64(r.P99)), fmtUS(float64(r.P999)),
			fmt.Sprintf("%d", r.SwapOuts), fmt.Sprintf("%d", r.SwapIns))
	}
	for mi, m := range machines {
		lin := res[mi*len(policies)+0]
		lat := res[mi*len(policies)+2]
		if lin.P99 > 0 {
			t.Note("%s: paper expects LATR to cut p99 by up to ~70%%; measured p99 %s vs Linux %s (%s)",
				m, fmtUS(float64(lat.P99)), fmtUS(float64(lin.P99)), fmtPct(float64(lat.P99)/float64(lin.P99)-1))
		}
	}
	return t
}
