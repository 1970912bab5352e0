// Package workload models the applications of the paper's evaluation (§6)
// as simulated thread programs, and resolves them by name for the CLIs
// and the experiment matrix.
package workload

import (
	"fmt"
	"strings"

	"latr/internal/kernel"
	"latr/internal/topo"
)

// Workload is the common surface of the evaluation applications: Setup
// spawns the threads on a kernel; Done reports completion for fixed-work
// workloads (server workloads run until the deadline and always report
// false).
type Workload interface {
	Setup(k *kernel.Kernel)
	Done() bool
}

// sizing is what a named workload is built from: its worker cores, the
// micro benchmark's pages and iterations, and the profile after "parsec:".
type sizing struct {
	cores        []topo.CoreID
	pages, iters int
	profile      string
}

// byName is the name table ByName resolves, in the order Names lists it.
// A name ending in ":" takes the rest of the name as its argument.
var byName = []struct {
	name  string
	build func(sizing) (Workload, error)
}{
	{"micro", func(s sizing) (Workload, error) {
		if s.pages < 1 || s.iters < 1 {
			return nil, fmt.Errorf("workload: micro needs at least 1 page and 1 iteration, got pages %d, iters %d", s.pages, s.iters)
		}
		return NewMicro(MicroConfig{Cores: len(s.cores), Pages: s.pages, Iters: s.iters}), nil
	}},
	{"apache", func(s sizing) (Workload, error) { return NewApache(DefaultApacheConfig(s.cores)), nil }},
	{"nginx", func(s sizing) (Workload, error) { return NewNginx(s.cores), nil }},
	{"parsec:", func(s sizing) (Workload, error) {
		prof, ok := ParsecProfileByName(s.profile)
		if !ok {
			return nil, fmt.Errorf("workload: unknown parsec benchmark %q", s.profile)
		}
		return NewParsec(prof, s.cores), nil
	}},
	{"graph500", func(s sizing) (Workload, error) { return NewGraph500(DefaultGraph500Config(s.cores)), nil }},
	{"pbzip2", func(s sizing) (Workload, error) { return NewPBZIP2(DefaultPBZIP2Config(s.cores)), nil }},
	{"metis", func(s sizing) (Workload, error) { return NewMetis(s.cores), nil }},
	{"ocean", func(s sizing) (Workload, error) { return NewGrid(OceanConfig(s.cores)), nil }},
	{"fluidanimate", func(s sizing) (Workload, error) { return NewGrid(FluidanimateConfig(s.cores)), nil }},
}

// Names lists the workload names ByName accepts; "parsec:<name>" stands
// for every ParsecSuite profile.
func Names() []string {
	out := make([]string, len(byName))
	for i, e := range byName {
		out[i] = e.name
		if strings.HasSuffix(e.name, ":") {
			out[i] += "<name>"
		}
	}
	return out
}

// ByName builds the named workload on worker cores 0..cores-1 in its
// paper configuration. pages and iters size the micro benchmark; the
// other workloads ignore them. Nothing touches a kernel until Setup.
func ByName(name string, cores, pages, iters int) (Workload, error) {
	key, profile, hasArg := strings.Cut(name, ":")
	if hasArg {
		key += ":"
	}
	for _, e := range byName {
		if e.name != key {
			continue
		}
		if cores < 1 {
			return nil, fmt.Errorf("workload: %s needs at least 1 core, got %d", name, cores)
		}
		cl := make([]topo.CoreID, cores)
		for i := range cl {
			cl[i] = topo.CoreID(i)
		}
		return e.build(sizing{cores: cl, pages: pages, iters: iters, profile: profile})
	}
	return nil, fmt.Errorf("workload: unknown workload %q (want %s)", name, strings.Join(Names(), ", "))
}
