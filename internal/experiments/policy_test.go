package experiments_test

import (
	"slices"
	"testing"

	"latr"
	"latr/internal/cluster"
	"latr/internal/experiments"
	"latr/internal/litmus"
	"latr/internal/shootdown"
)

// TestNewPolicyNames runs every registry name through each entry point
// that resolves a policy by name — experiments.NewPolicy,
// cluster.Config.Validate and latr.NewSystem — ties every hand-kept
// policy subset to the registry, and pins the unknown-name error, which
// must name the bad value and every accepted name.
func TestNewPolicyNames(t *testing.T) {
	want := []string{"linux", "latr", "abis", "barrelfish", "instant", "guest-latr", "host-latr", "hatric"}
	if got := shootdown.Names(); !slices.Equal(got, want) {
		t.Fatalf("shootdown.Names() = %v, want %v", got, want)
	}
	for _, name := range want {
		t.Run(name, func(t *testing.T) {
			if p, err := experiments.NewPolicy(name); err != nil || p.Name() != name {
				t.Errorf("experiments.NewPolicy(%s) = %v, %v", name, p, err)
			}
			cfg := cluster.DefaultConfig()
			cfg.Policy = name
			if err := cfg.Validate(); err != nil {
				t.Errorf("cluster.Config.Validate: %v", err)
			}
			sys := latr.NewSystem(latr.Config{Policy: latr.PolicyKind(name)})
			if got := sys.Kernel().Policy().Name(); got != name {
				t.Errorf("latr.NewSystem built %q", got)
			}
		})
	}
	// The hand-kept subsets each surface offers must name only registered
	// policies.
	for list, names := range map[string][]string{
		"litmus.DefaultPolicies":      litmus.DefaultPolicies,
		"experiments.PolicyNames":     experiments.PolicyNames(),
		"experiments.VirtPolicyNames": experiments.VirtPolicyNames(),
		"latr.PolicyNames":            latr.PolicyNames(),
		"latr.PolicyKind constants": {string(latr.PolicyLinux), string(latr.PolicyLATR), string(latr.PolicyABIS),
			string(latr.PolicyBarrelfish), string(latr.PolicyInstant)},
	} {
		for _, name := range names {
			if !slices.Contains(want, name) {
				t.Errorf("%s entry %q is not in the registry", list, name)
			}
		}
	}

	const unknown = `shootdown: unknown policy "nope" (have linux, latr, abis, barrelfish, instant, guest-latr, host-latr, hatric)`
	if _, err := experiments.NewPolicy("nope"); err == nil || err.Error() != unknown {
		t.Errorf("experiments.NewPolicy(nope) error = %v, want %s", err, unknown)
	}
	cfg := cluster.DefaultConfig()
	cfg.Policy = "nope"
	if err := cfg.Validate(); err == nil || err.Error() != unknown {
		t.Errorf("cluster.Config.Validate error = %v, want %s", err, unknown)
	}
}
