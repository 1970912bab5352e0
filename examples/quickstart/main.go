// Quickstart: build the paper's 2-socket/16-core machine, share a few
// pages across cores, munmap them, and compare the munmap latency under
// Linux's synchronous IPI shootdown and under LATR.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"

	"latr"
)

func measureMunmap(policy latr.PolicyKind) latr.Time {
	sys := latr.NewSystem(latr.Config{
		Machine:         latr.TwoSocket16,
		Policy:          policy,
		CheckInvariants: true, // assert the no-reuse-while-mapped invariant
	})
	k := sys.Kernel()
	p := sys.NewProcess()

	// Keep every other core busy in the same address space, so the
	// shootdown has 15 remote targets.
	for c := 1; c < 16; c++ {
		p.Spawn(latr.CoreID(c), latr.Script(
			func(*latr.Thread) latr.Op { return latr.Compute(20 * latr.Millisecond) },
		))
	}

	// Core 0: map 4 pages, let the others cache them, unmap.
	var base = new(latr.Thread)
	_ = base
	p.Spawn(0, latr.Script(
		func(th *latr.Thread) latr.Op {
			return latr.Mmap(4, true).Populate(-1)
		},
		func(th *latr.Thread) latr.Op { return latr.Sleep(100 * latr.Microsecond) },
		func(th *latr.Thread) latr.Op { return latr.Munmap(th.LastAddr, 4) },
	))

	sys.Run(30 * latr.Millisecond)
	return k.Metrics.Hist("munmap.latency").Mean()
}

func main() {
	linux := measureMunmap(latr.PolicyLinux)
	lazy := measureMunmap(latr.PolicyLATR)
	fmt.Printf("munmap(4 pages) with 15 remote cores sharing the mm:\n")
	fmt.Printf("  linux (synchronous IPI shootdown): %v\n", linux)
	fmt.Printf("  latr  (lazy state + sweep):        %v\n", lazy)
	fmt.Printf("  improvement:                       %.1f%%\n",
		(1-float64(lazy)/float64(linux))*100)
	fmt.Println("\nThe paper's Fig 6 reports ~70.8% at 16 cores.")
}
