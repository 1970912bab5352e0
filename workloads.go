package latr

import (
	"latr/internal/workload"
)

// Workload is the common surface of the evaluation applications: Setup
// spawns the threads on a system's kernel; Done reports completion for
// fixed-work workloads (server workloads run until the deadline and always
// report false).
type Workload = workload.Workload

// WorkloadByName builds a named workload in its paper configuration on
// cores 0..cores-1; pages and iters size the micro benchmark.
func WorkloadByName(name string, cores, pages, iters int) (Workload, error) {
	return workload.ByName(name, cores, pages, iters)
}

// WorkloadNames lists the names WorkloadByName accepts.
func WorkloadNames() []string { return workload.Names() }

// Workload configurations and constructors, re-exported from
// internal/workload. Each models one application of the paper's evaluation
// (§6); see DESIGN.md for the substitution rationale.
type (
	// MicroConfig parameterises the §6.2.1 munmap microbenchmark.
	MicroConfig = workload.MicroConfig
	// Micro is the munmap microbenchmark (Figs 6-8).
	Micro = workload.Micro
	// ApacheConfig parameterises the web-server workload.
	ApacheConfig = workload.ApacheConfig
	// Apache is the mmap/serve/munmap web server (Figs 1, 9).
	Apache = workload.Apache
	// Nginx is the event-driven server (Fig 12).
	Nginx = workload.Nginx
	// ParsecProfile describes one PARSEC benchmark's behaviour.
	ParsecProfile = workload.ParsecProfile
	// Parsec runs one profile to completion (Figs 10, 12, Table 4).
	Parsec = workload.Parsec
	// Graph500Config parameterises the BFS workload.
	Graph500Config = workload.Graph500Config
	// Graph500 is the breadth-first-search workload (Fig 11).
	Graph500 = workload.Graph500
	// PBZIP2Config parameterises parallel compression.
	PBZIP2Config = workload.PBZIP2Config
	// PBZIP2 is the parallel compression workload (Fig 11).
	PBZIP2 = workload.PBZIP2
	// Metis is the single-machine MapReduce workload (Fig 11).
	Metis = workload.Metis
	// MemcachedConfig parameterises the KV server of the Infiniswap case
	// study (§6.2).
	MemcachedConfig = workload.MemcachedConfig
	// Memcached is the memcached-like KV server whose per-request
	// latencies feed the remote-memory tail-latency experiment.
	Memcached = workload.Memcached
	// GridConfig parameterises the stencil workloads.
	GridConfig = workload.GridConfig
	// Grid is the iterative stencil workload (ocean_cp/fluidanimate, Fig 11).
	Grid = workload.Grid
	// Barrier synchronises simulated threads.
	Barrier = workload.Barrier
	// Gate is a one-shot latch for simulated threads.
	Gate = workload.Gate
)

// Workload constructors and helpers.
var (
	// NewMicro builds the munmap microbenchmark.
	NewMicro = workload.NewMicro
	// NewApache builds the web-server workload.
	NewApache = workload.NewApache
	// DefaultApacheConfig is the Fig 9 configuration.
	DefaultApacheConfig = workload.DefaultApacheConfig
	// NewNginx builds the event-server workload in its Fig 12
	// configuration.
	NewNginx = workload.NewNginx
	// NewParsec builds one PARSEC profile run.
	NewParsec = workload.NewParsec
	// ParsecSuite returns the 13 Fig 10 profiles.
	ParsecSuite = workload.ParsecSuite
	// ParsecProfileByName finds a suite profile.
	ParsecProfileByName = workload.ParsecProfileByName
	// NewGraph500 builds the BFS workload.
	NewGraph500 = workload.NewGraph500
	// DefaultGraph500Config is the Fig 11 configuration.
	DefaultGraph500Config = workload.DefaultGraph500Config
	// NewPBZIP2 builds the compression workload.
	NewPBZIP2 = workload.NewPBZIP2
	// DefaultPBZIP2Config is the Fig 11 configuration.
	DefaultPBZIP2Config = workload.DefaultPBZIP2Config
	// NewMetis builds the MapReduce workload in its Fig 11
	// configuration.
	NewMetis = workload.NewMetis
	// NewMemcached builds the KV server workload.
	NewMemcached = workload.NewMemcached
	// DefaultMemcachedConfig is the §6.2 case-study configuration.
	DefaultMemcachedConfig = workload.DefaultMemcachedConfig
	// NewGrid builds a stencil workload.
	NewGrid = workload.NewGrid
	// OceanConfig is the ocean_cp stencil configuration.
	OceanConfig = workload.OceanConfig
	// FluidanimateConfig is the fluidanimate stencil configuration.
	FluidanimateConfig = workload.FluidanimateConfig
	// NewBarrier builds an n-participant barrier.
	NewBarrier = workload.NewBarrier
	// NewGate builds a closed gate.
	NewGate = workload.NewGate
)

// CoreList returns core ids 0..n-1, the common worker-core argument.
func CoreList(n int) []CoreID {
	out := make([]CoreID, n)
	for i := range out {
		out[i] = CoreID(i)
	}
	return out
}
