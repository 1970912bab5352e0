package tune

import (
	"testing"

	latrcore "latr/internal/core"
	"latr/internal/cost"
	"latr/internal/kernel"
	"latr/internal/sim"
	"latr/internal/topo"
)

// driveChurn runs a short fixed munmap-churn scenario on k and returns
// its engine and metrics fingerprints.
func driveChurn(k *kernel.Kernel) (engineFP, metricsFP uint64) {
	p := k.NewProcess()
	targets, err := k.Spec.SpreadCores(6)
	if err != nil {
		panic(err)
	}
	for _, c := range targets {
		p.Spawn(c, kernel.Loop(func(*kernel.Thread) kernel.Op {
			return kernel.Compute(sim.Millisecond)
		}))
	}
	n := 0
	p.Spawn(0, kernel.Loop(func(th *kernel.Thread) kernel.Op {
		if n >= 80 {
			return kernel.Op{}
		}
		n++
		if n%2 == 1 {
			return kernel.Mmap(4, true).Populate(-1)
		}
		return kernel.Munmap(th.LastAddr, 4)
	}))
	k.Run(60 * sim.Millisecond)
	return k.Engine.Fingerprint(), k.Metrics.Fingerprint()
}

// TestDefaultTunablesAreByteIdentical is the digest-regression test for
// the knob route: a kernel built with nil Options.Tunables and one given
// the paper defaults explicitly must produce identical engine and metrics
// fingerprints on the same scenario — the route is invisible at defaults.
func TestDefaultTunablesAreByteIdentical(t *testing.T) {
	spec := topo.TwoSocket16()
	const seed = 41

	old := kernel.New(spec, cost.Default(spec), latrcore.New(latrcore.Config{}), kernel.Options{Seed: seed})
	oldEng, oldMet := driveChurn(old)

	def := kernel.DefaultTunables()
	nu := kernel.New(spec, cost.Default(spec), latrcore.New(latrcore.Config{}), kernel.Options{
		Seed:     seed,
		Tunables: &def,
	})
	nuEng, nuMet := driveChurn(nu)

	if oldEng != nuEng {
		t.Errorf("engine fingerprint diverged: %x (nil Tunables) vs %x (default Tunables)", oldEng, nuEng)
	}
	if oldMet != nuMet {
		t.Errorf("metrics fingerprint diverged: %x (nil Tunables) vs %x (default Tunables)", oldMet, nuMet)
	}
}
