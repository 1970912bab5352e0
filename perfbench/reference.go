package main

import (
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// The reference computation cancels host-speed drift: wall_rel and cpu_rel
// express the timed phase in units of it. It is benchmark-owned and imports
// nothing from the simulator, so no change to the program can move it.
//
// It runs in short pieces interleaved through the timed phase: one at its
// start, one at its end, and one whenever pieceEvery has passed between
// simulator calls. Each stretch of simulator time between two pieces is
// divided by the mean of those two pieces, so the host is sampled over the
// same seconds the simulator ran in. On the shared 2-vCPU VM this was built
// on, host speed moved by 10–40% within seconds, sometimes through CPU
// contention (which a register-only loop tracks best) and sometimes
// through cache and memory contention (which a table larger than a core's
// caches tracks best); see README.md. A piece therefore does both, in
// about equal time: integer hashing in registers, then filling and probing
// a 4 MB open-addressed hash table and sorting the keys it inserted. Pieces
// allocate nothing and keep their tables in static storage the GC never
// scans, so they move no heap metric.
const (
	// refNominal converts set-up time in reference units back to seconds:
	// setup_s is set-up time on a host where one piece takes this long.
	refNominal = 10 * time.Millisecond

	pieceIters = 1 << 21
	tableSlots = 1 << 19
	tableKeys  = 1 << 16
	pieceEvery = 200 * time.Millisecond
)

var (
	refTable [tableSlots]uint64
	refKeys  [tableKeys]uint64
)

// refPieceSum is refPiece's result: any other value means the reference
// changed, and ratios measured with it would not compare with earlier ones.
const refPieceSum = 6913027186719602101

// refPiece is one piece of the reference computation.
func refPiece() uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	var sum uint64
	for i := 0; i < pieceIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		sum += x * 0x9e3779b97f4a7c15 >> 7
	}
	clear(refTable[:])
	n := 0
	for i := 0; i < tableKeys; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := x%(4*tableSlots) + 1
		for h := (k * 0x9e3779b97f4a7c15) >> 40; ; h++ {
			slot := h & (tableSlots - 1)
			if refTable[slot] == 0 {
				refTable[slot] = k
				refKeys[n] = k
				n++
				break
			}
			if refTable[slot] == k {
				sum += k
				break
			}
		}
	}
	slices.Sort(refKeys[:n])
	return sum + refKeys[n/2]
}

// refSink keeps refPiece's result live.
var refSink uint64

// timePiece runs one piece and returns its wall time.
func timePiece() time.Duration {
	t0 := time.Now()
	refSink = refPiece()
	return time.Since(t0)
}

// drift runs the reference pieces of one timed phase. It keeps their time
// out of the phase's and sums the phase in local reference units.
type drift struct {
	pieces          int
	last            time.Time     // end of the latest piece
	lastProc        time.Duration // process CPU at the end of the latest piece
	pieceWall       time.Duration // latest piece's wall time
	pieceCPU        time.Duration // latest piece's CPU time on this thread
	wall, cpu       time.Duration // total piece time
	relWall         float64       // simulator wall time in local piece-wall units
	relCPU          float64       // process CPU time in local piece-CPU units
	simWall, simCPU time.Duration
}

// maybe runs a piece if pieceEvery has passed since the last one.
func (d *drift) maybe() {
	if d != nil && time.Since(d.last) >= pieceEvery {
		d.sample()
	}
}

func (d *drift) sample() {
	proc0 := processCPU()
	c0 := threadCPU()
	t0 := time.Now()
	refSink = refPiece()
	t1 := time.Now()
	pieceCPU := threadCPU() - c0
	pieceWall := t1.Sub(t0)
	if d.pieces > 0 {
		w, c := t0.Sub(d.last), proc0-d.lastProc
		d.simWall += w
		d.simCPU += c
		d.relWall += float64(w) / (float64(d.pieceWall+pieceWall) / 2)
		d.relCPU += float64(c) / (float64(d.pieceCPU+pieceCPU) / 2)
	}
	d.pieces++
	d.wall += pieceWall
	d.cpu += pieceCPU
	d.pieceWall, d.pieceCPU = pieceWall, pieceCPU
	d.last, d.lastProc = time.Now(), processCPU()
}

// processCPU is the process's user+system CPU time across all threads.
// The kernel leaves out time the hypervisor stole from the VM.
func processCPU() time.Duration { return cpuClock(clockProcessCPU) }

// threadCPU is the calling thread's CPU time; main locks the benchmark's
// goroutine to its thread, so this is the benchmark goroutine's own.
func threadCPU() time.Duration { return cpuClock(clockThreadCPU) }

// The CPU-time clocks of clock_gettime(2). They count scheduler run time to
// the nanosecond, where getrusage(2) may split it by timer ticks.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
