package latr_test

import (
	"testing"

	"latr"
)

// TestDifferentialRandomStreams drives identical pseudo-random
// mmap/madvise/munmap/mprotect/touch streams through every coherence
// policy with the reuse-invariant checker enabled, and asserts that the
// final *functional* memory state is identical across policies — the
// policies may only differ in timing, never in semantics. This is the
// repository's broadest end-to-end property test: any policy bug that
// frees early, invalidates the wrong range, or loses a mapping either
// panics inside the checker or diverges here.
func TestDifferentialRandomStreams(t *testing.T) {
	type result struct {
		mapped  int
		segv    uint64
		demands uint64
		inUse   int64
	}

	runStream := func(seed uint64, policy latr.PolicyKind) result {
		sys := latr.NewSystem(latr.Config{
			Machine:         latr.TwoSocket16,
			Policy:          policy,
			CheckInvariants: true,
			Seed:            1, // kernel seed fixed; the streams vary via their own RNGs
		})
		k := sys.Kernel()
		p := sys.NewProcess()

		type reg struct {
			base  latr.VPN
			pages int
		}
		for actor := 0; actor < 4; actor++ {
			rng := newSplitmix(seed*1000003 + uint64(actor))
			var regions []reg
			pendingPages := 0
			steps := 0
			p.Spawn(latr.CoreID(actor*4), latr.Loop(func(th *latr.Thread) latr.Op {
				if pendingPages > 0 {
					if th.LastErr == nil {
						regions = append(regions, reg{th.LastAddr, pendingPages})
					}
					pendingPages = 0
				}
				steps++
				if steps > 220 {
					return latr.Op{}
				}
				switch rng() % 10 {
				case 0, 1, 2:
					pendingPages = 1 + int(rng()%16)
					op := latr.Mmap(pendingPages, true)
					if rng()%2 == 0 {
						op = op.Populate(-1)
					}
					return op
				case 3, 4:
					if len(regions) == 0 {
						return latr.Compute(5 * latr.Microsecond)
					}
					r := regions[rng()%uint64(len(regions))]
					return latr.TouchRange(r.base, r.pages, rng()%2 == 0)
				case 5, 6:
					if len(regions) == 0 {
						return latr.Compute(5 * latr.Microsecond)
					}
					i := int(rng() % uint64(len(regions)))
					r := regions[i]
					regions = append(regions[:i], regions[i+1:]...)
					return latr.Munmap(r.base, r.pages)
				case 7:
					if len(regions) == 0 {
						return latr.Compute(5 * latr.Microsecond)
					}
					r := regions[rng()%uint64(len(regions))]
					return latr.Madvise(r.base, max(1, r.pages/2))
				case 8:
					if len(regions) == 0 {
						return latr.Compute(5 * latr.Microsecond)
					}
					r := regions[rng()%uint64(len(regions))]
					return latr.Mprotect(r.base, r.pages, rng()%2 == 0)
				default:
					return latr.Sleep(latr.Time(1+rng()%100) * latr.Microsecond)
				}
			}))
		}
		for i := 0; i < 400 && k.LiveThreads() > 0; i++ {
			sys.Run(sys.Now() + 10*latr.Millisecond)
		}
		if k.LiveThreads() != 0 {
			t.Fatalf("%s: actors did not finish", policy)
		}
		sys.Run(sys.Now() + 10*latr.Millisecond) // drain LATR reclamation
		mapped := 0
		for _, proc := range k.Processes() {
			mapped += proc.MM.PT.Mapped()
		}
		return result{
			mapped:  mapped,
			segv:    k.Metrics.Counter("fault.segv"),
			demands: k.Metrics.Counter("fault.demand"),
			inUse:   k.Alloc.TotalInUse(),
		}
	}

	policies := []latr.PolicyKind{
		latr.PolicyLinux, latr.PolicyLATR, latr.PolicyABIS,
		latr.PolicyBarrelfish, latr.PolicyInstant,
	}
	for seed := uint64(1); seed <= 3; seed++ {
		ref := runStream(seed, policies[0])
		for _, pol := range policies[1:] {
			got := runStream(seed, pol)
			if got != ref {
				t.Errorf("seed %d: %s diverged from linux: got %+v, want %+v", seed, pol, got, ref)
			}
		}
	}
}

// FuzzLitmusDifferential feeds arbitrary bytes through the litmus scenario
// grammar (LitmusFromBytes keeps every derived scenario race-free) and runs
// the result under Linux and LATR. Most inputs get the exact oracle: each
// run must match the flat reference model and the two policies must agree
// on the region-relative final state. Roughly one input in eight draws the
// swap directive instead — the scenario then runs under memory pressure
// with the remote-paging swapper, where eviction timing is policy-dependent
// and only the safety properties (plus deterministic mapped post-conditions)
// are checked. A quarter of the non-swap inputs instead draw the two-level
// nesting: vCPU threads inside VM V1 with a host thread ballooning and
// migrating it mid-churn — still under the exact oracle, since host-level
// reclaim must be architecturally invisible to the guest. Either way the
// always-on audit mode means no coherence invariant may break.
func FuzzLitmusDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 3, 0, 0, 2, 0, 0, 1, 16, 0, 0, 4})
	f.Add([]byte{2, 1, 7, 1, 1, 5, 11, 2, 3, 13, 0, 2, 16, 3, 1, 9, 4, 2, 255, 0, 8})
	f.Add([]byte("litmus is not parsed here, just raw entropy"))
	// First byte ≡ 1 (mod 8) turns on the swap draw: generated churn runs
	// concurrently with eviction, remote refault, and Drop traffic.
	f.Add([]byte{9, 2, 5, 0, 9, 3, 1, 14, 0, 4, 16, 7, 2, 200, 1, 6})
	f.Add([]byte{17, 1, 0, 40, 9, 0, 5, 16, 0, 3, 8, 8, 8})
	// Second byte ≡ 0 (mod 4) on a non-swap input turns on the two-level
	// draw: guest vCPU threads plus a host thread ballooning and migrating
	// VM V1 underneath them.
	f.Add([]byte{0, 0, 0, 1, 16, 0, 0, 9, 0, 8, 1, 2, 50, 0, 12, 3})
	f.Add([]byte{0, 4, 2, 3, 1, 0, 7, 1, 1, 5, 11, 2, 0, 3, 13, 0, 2, 16, 200, 1, 6, 0, 3, 24})
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := latr.LitmusFromBytes(data)
		rep := latr.RunLitmusSuite([]*latr.LitmusScenario{sc}, latr.LitmusSuiteConfig{
			Policies: []string{"linux", "latr"},
			Topos:    []string{"2x8"},
			Seed:     7,
			Workers:  1,
		})
		if rep.Failed() {
			t.Fatalf("differential oracle failed:\n%s\nscenario:\n%s", rep.RenderFailures(0), sc)
		}
	})
}

// newSplitmix returns a splitmix64 generator local to the test, so the
// streams stay stable across Go releases.
func newSplitmix(seed uint64) func() uint64 {
	state := seed
	return func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
}
