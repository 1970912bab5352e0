package workload

import (
	"latr/internal/kernel"
	"latr/internal/pt"
	"latr/internal/sim"
	"latr/internal/topo"
)

// ParsecProfile is a behavioural model of one PARSEC benchmark: fixed
// per-thread work with the benchmark's characteristic memory-management
// traffic (madvise/munmap frees, context-switch pressure). The profile
// parameters are calibrated so the Linux-baseline shootdown rates match the
// per-benchmark bars of Fig 10; the runtime deltas between policies then
// emerge from the mechanism.
type ParsecProfile struct {
	Name string
	// ThreadsPerCore > 1 plus SleepEvery model lock/condvar-heavy
	// benchmarks (canneal) whose context-switch rate is what stresses
	// LATR's sweep-at-switch.
	ThreadsPerCore int
	// OpWork is the compute per loop iteration.
	OpWork sim.Time
	// TouchPages are working-set pages touched per iteration.
	TouchPages int
	// FreeEvery iterations, FreePages of the working set are freed
	// (madvise when UseMadvise, else munmap+remap) — the shootdown source.
	FreeEvery  int
	FreePages  int
	UseMadvise bool
	// SleepEvery iterations the thread blocks for SleepDur.
	SleepEvery int
	SleepDur   sim.Time
	// TotalOps is the fixed per-thread work (completion time is the
	// metric, as Fig 10 reports normalized runtime).
	TotalOps int
	// BaseLLCMiss is the application-intrinsic LLC miss ratio (Table 4).
	BaseLLCMiss float64
}

// ParsecSuite returns the 13 Fig 10 benchmarks. Shootdown-rate anchors
// (Linux, 16 cores) are noted per profile.
func ParsecSuite() []ParsecProfile {
	return []ParsecProfile{
		// ~50/s: almost no memory-management traffic.
		{Name: "blackscholes", ThreadsPerCore: 1, OpWork: 60 * sim.Microsecond, TouchPages: 4, FreeEvery: 4000, FreePages: 8, UseMadvise: true, TotalOps: 20000, BaseLLCMiss: 0.06},
		// ~2k/s.
		{Name: "bodytrack", ThreadsPerCore: 1, OpWork: 50 * sim.Microsecond, TouchPages: 6, FreeEvery: 160, FreePages: 8, UseMadvise: true, TotalOps: 24000, BaseLLCMiss: 0.12},
		// ~250/s but context-switch heavy: 2 threads/core with short sleeps.
		{Name: "canneal", ThreadsPerCore: 2, OpWork: 14 * sim.Microsecond, TouchPages: 8, FreeEvery: 1800, FreePages: 8, UseMadvise: true, SleepEvery: 2, SleepDur: 4 * sim.Microsecond, TotalOps: 30000, BaseLLCMiss: 0.8051},
		// ~30k/s: the madvise-heavy outlier, biggest LATR win (+9.6%).
		{Name: "dedup", ThreadsPerCore: 1, OpWork: 45 * sim.Microsecond, TouchPages: 12, FreeEvery: 12, FreePages: 16, UseMadvise: true, TotalOps: 26000, BaseLLCMiss: 0.1833},
		// ~2.5k/s.
		{Name: "facesim", ThreadsPerCore: 1, OpWork: 55 * sim.Microsecond, TouchPages: 10, FreeEvery: 115, FreePages: 8, UseMadvise: true, TotalOps: 22000, BaseLLCMiss: 0.30},
		// ~4k/s.
		{Name: "ferret", ThreadsPerCore: 1, OpWork: 48 * sim.Microsecond, TouchPages: 8, FreeEvery: 80, FreePages: 8, UseMadvise: true, TotalOps: 24000, BaseLLCMiss: 0.4802},
		// ~1k/s.
		{Name: "fluidanimate", ThreadsPerCore: 1, OpWork: 42 * sim.Microsecond, TouchPages: 8, FreeEvery: 370, FreePages: 8, UseMadvise: true, TotalOps: 28000, BaseLLCMiss: 0.25},
		// ~150/s.
		{Name: "freqmine", ThreadsPerCore: 1, OpWork: 65 * sim.Microsecond, TouchPages: 6, FreeEvery: 1600, FreePages: 8, UseMadvise: true, TotalOps: 18000, BaseLLCMiss: 0.20},
		// ~24k/s: dedup's network-input variant.
		{Name: "netdedup", ThreadsPerCore: 1, OpWork: 47 * sim.Microsecond, TouchPages: 12, FreeEvery: 14, FreePages: 16, UseMadvise: true, TotalOps: 25000, BaseLLCMiss: 0.19},
		// ~400/s.
		{Name: "raytrace", ThreadsPerCore: 1, OpWork: 58 * sim.Microsecond, TouchPages: 6, FreeEvery: 700, FreePages: 8, UseMadvise: true, TotalOps: 20000, BaseLLCMiss: 0.35},
		// ~5k/s.
		{Name: "streamcluster", ThreadsPerCore: 1, OpWork: 52 * sim.Microsecond, TouchPages: 10, FreeEvery: 60, FreePages: 8, UseMadvise: true, TotalOps: 23000, BaseLLCMiss: 0.9542},
		// ~80/s.
		{Name: "swaptions", ThreadsPerCore: 1, OpWork: 62 * sim.Microsecond, TouchPages: 4, FreeEvery: 3200, FreePages: 8, UseMadvise: true, TotalOps: 19000, BaseLLCMiss: 0.4748},
		// ~14k/s: frequent buffer recycling through real munmap/mmap.
		{Name: "vips", ThreadsPerCore: 1, OpWork: 50 * sim.Microsecond, TouchPages: 10, FreeEvery: 28, FreePages: 12, UseMadvise: false, TotalOps: 24000, BaseLLCMiss: 0.28},
	}
}

// ParsecProfileByName finds a suite profile.
func ParsecProfileByName(name string) (ParsecProfile, bool) {
	for _, p := range ParsecSuite() {
		if p.Name == name {
			return p, true
		}
	}
	return ParsecProfile{}, false
}

// Parsec runs one profile on a set of cores.
type Parsec struct {
	profile ParsecProfile
	cores   []topo.CoreID
	k       *kernel.Kernel

	total    int
	finished int
	finishAt sim.Time
}

// NewParsec builds the workload for one profile.
func NewParsec(profile ParsecProfile, cores []topo.CoreID) *Parsec {
	if len(cores) == 0 || profile.TotalOps <= 0 {
		panic("workload: invalid parsec config")
	}
	return &Parsec{profile: profile, cores: cores}
}

// Setup spawns ThreadsPerCore threads per core in one process (PARSEC
// benchmarks are single-process pthread programs).
func (w *Parsec) Setup(k *kernel.Kernel) {
	w.k = k
	pr := w.profile
	proc := k.NewProcess()
	for _, c := range w.cores {
		for t := 0; t < max(1, pr.ThreadsPerCore); t++ {
			w.total++
			w.spawnThread(proc, c)
		}
	}
}

func (w *Parsec) spawnThread(proc *kernel.Process, core topo.CoreID) {
	pr := w.profile
	bufPages := pr.TouchPages * 4
	if pr.FreePages > bufPages {
		bufPages = pr.FreePages * 2
	}
	var buf pt.VPN
	ops := 0
	cursor := 0
	step := 0
	proc.Spawn(core, kernel.Loop(func(th *kernel.Thread) kernel.Op {
		switch step {
		case 0: // allocate the working set
			step = 1
			return kernel.Mmap(bufPages, true).Populate(-1)
		case 1:
			buf = th.LastAddr
			step = 2
			return kernel.Compute(pr.OpWork)
		case 2: // touch a sliding window of the working set
			ops++
			start := buf + pt.VPN(cursor%max(1, bufPages-pr.TouchPages))
			cursor += pr.TouchPages
			switch {
			case ops >= pr.TotalOps:
				step = 6
			case pr.FreeEvery > 0 && ops%pr.FreeEvery == 0:
				step = 3
			case pr.SleepEvery > 0 && ops%pr.SleepEvery == 0:
				step = 5
			default:
				step = 1
			}
			return kernel.TouchRange(start, pr.TouchPages, true)
		case 3: // free part of the working set
			if pr.UseMadvise {
				step = 1
				return kernel.Madvise(buf, pr.FreePages)
			}
			step = 4
			return kernel.Munmap(buf, bufPages)
		case 4: // vips-style full buffer recycle
			step = 1
			return kernel.Mmap(bufPages, true).Populate(-1)
		case 5: // condvar/lock wait (context-switch driver)
			step = 1
			return kernel.Sleep(pr.SleepDur)
		case 6:
			w.finished++
			if w.finished == w.total {
				w.finishAt = w.k.Now()
			}
			return kernel.Op{}
		default:
			panic("unreachable")
		}
	}))
}

// Done reports whether every thread finished its fixed work.
func (w *Parsec) Done() bool { return w.total > 0 && w.finished == w.total }

// FinishTime is when the last thread completed (the Fig 10 runtime).
func (w *Parsec) FinishTime() sim.Time { return w.finishAt }

// Profile returns the profile under test.
func (w *Parsec) Profile() ParsecProfile { return w.profile }
