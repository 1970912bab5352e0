package shootdown

import (
	"fmt"
	"strings"

	latrcore "latr/internal/core"
	"latr/internal/kernel"
)

// registry is the one name→policy table: every harness that builds a
// coherence policy by name — the experiments, litmus, the cluster nodes
// and the latr facade — resolves it here. Each entry builds a fresh,
// unconfigured instance; the LATR policies copy their knobs from the
// kernel's Tunables when they attach.
var registry = []struct {
	name  string
	build func() kernel.Policy
}{
	{"linux", func() kernel.Policy { return NewLinux() }},
	{"latr", func() kernel.Policy { return latrcore.New(latrcore.Config{}) }},
	{"abis", func() kernel.Policy { return NewABIS() }},
	{"barrelfish", func() kernel.Policy { return NewBarrelfish() }},
	{"instant", func() kernel.Policy { return kernel.NewInstantPolicy() }},
	{"guest-latr", func() kernel.Policy { return NewGuestLATR() }},
	{"host-latr", func() kernel.Policy { return NewHostLATR() }},
	{"hatric", func() kernel.Policy { return NewHATRIC() }},
}

// Names lists every policy name ByName accepts, in registry order.
func Names() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}

// ByName builds a fresh coherence policy by name.
func ByName(name string) (kernel.Policy, error) {
	for _, e := range registry {
		if e.name == name {
			return e.build(), nil
		}
	}
	return nil, fmt.Errorf("shootdown: unknown policy %q (have %s)", name, strings.Join(Names(), ", "))
}
