// Swap pressure: the Table 1 "page swap" row, implemented per §3's sketch
// — "with an LRU-based page swapping algorithm, the page table unmap and
// swap operation can be performed lazily after the last core has
// invalidated the TLB entry". A working set larger than one NUMA node's
// memory forces the swapper to evict cold pages; under Linux every
// eviction pays a synchronous shootdown, under LATR it records a state and
// the frame is reclaimed after the sweeps.
//
// Run with: go run ./examples/swap-pressure
package main

import (
	"fmt"

	"latr"
)

func run(policy latr.PolicyKind) {
	machine := latr.CustomMachine(2, 8)
	machine.MemPerNodeBytes = 2048 * 4096 // tiny node: 2048 frames
	sys := latr.NewSystem(latr.Config{
		Machine:         machine,
		Policy:          policy,
		Swap:            &latr.SwapConfig{LowWatermarkFrames: 512, BatchPages: 48},
		CheckInvariants: true, // reuse invariant audited across swap-out/in
	})
	k := sys.Kernel()
	p := sys.NewProcess()

	// Sibling threads on other cores keep the mm in their cpumask, so
	// every Linux swap-out must shoot them down.
	for c := 1; c <= 3; c++ {
		p.Spawn(latr.CoreID(c), latr.Loop(func(*latr.Thread) latr.Op {
			return latr.Compute(5 * latr.Millisecond)
		}))
	}

	// One thread cycles through a working set ~1.5x node memory: the cold
	// two-thirds keep getting evicted and faulted back.
	const regions = 6
	const pagesPer = 500
	var bases [regions]latr.VPN
	step := 0
	cycle := 0
	p.Spawn(0, latr.Loop(func(th *latr.Thread) latr.Op {
		if step < regions {
			if step > 0 {
				bases[step-1] = th.LastAddr
			}
			step++
			return latr.Mmap(pagesPer, true)
		}
		if step == regions {
			bases[regions-1] = th.LastAddr
			step++
		}
		cycle++
		if cycle > regions*6 {
			return latr.Op{}
		}
		return latr.TouchRange(bases[cycle%regions], pagesPer, true).Repeat(8)
	}))

	for sys.Now() < 2*latr.Second && k.LiveThreads() > 4 {
		sys.Run(sys.Now() + 10*latr.Millisecond)
	}
	m := sys.Metrics()
	fmt.Printf("  %-6s swap-out=%-6d swap-in=%-6d shootdown IPIs=%-6d lazy reclaims=%d\n",
		policy,
		m.Counter("swap.out"), m.Counter("swap.in"),
		m.Counter("shootdown.ipi"), m.Counter("latr.reclaimed"))
}

func main() {
	fmt.Println("LRU page swapping under memory pressure (working set > node memory):")
	run(latr.PolicyLinux)
	run(latr.PolicyLATR)
	fmt.Println("\nLATR's swap-out frees frames through lazy reclamation instead of")
	fmt.Println("IPIs (any residual IPIs are the 64-state fallback under eviction")
	fmt.Println("bursts); the reuse invariant stays audited throughout.")
}
