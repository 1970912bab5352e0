package workload

import (
	"sort"

	"latr/internal/kernel"
	"latr/internal/metrics"
	"latr/internal/pt"
	"latr/internal/sim"
	"latr/internal/topo"
)

// Graph500Config parameterises the Graph500 BFS workload of Fig 11: a
// breadth-first search over a synthetic power-law graph. The graph is
// generated (and its memory first-touched) on node 0, so under AutoNUMA
// the hot vertex/edge pages migrate toward the cores that scan them —
// LATR's lazy sampling removes the shootdown cost from that path.
type Graph500Config struct {
	Scale int // 2^Scale vertices (the paper uses 20; sims default 13)
	Roots int // BFS repetitions
	Cores []topo.CoreID
}

// DefaultGraph500Config returns a simulation-sized problem.
func DefaultGraph500Config(cores []topo.CoreID) Graph500Config {
	return Graph500Config{Scale: 13, Roots: 3, Cores: cores}
}

const (
	vertsPerPage = 512 // 8-byte level entries
	edgesPerPage = 512 // 8-byte adjacency entries

	graph500EdgeFactor = 16 // edges per vertex, as in the reference input
	graph500Seed       = 42 // drives graph generation and root choice
)

// Graph500 holds the generated graph and the precomputed per-thread page
// access trace. The BFS itself is a real breadth-first search executed at
// generation time; the simulation replays the page accesses each (thread,
// level) performs, which is what determines TLB/NUMA behaviour.
type Graph500 struct {
	cfg Graph500Config
	k   *kernel.Kernel
	met struct{ pageTouches metrics.Counter }

	adj    [][]int32
	csrOff []int64 // edge-array offset per vertex

	vertPages int
	edgePages int

	// trace[root][level][thread] = unique pages touched (relative VPNs,
	// vertex region first, edge region offset by vertPages).
	trace [][][][]pt.VPN
	// work[root][level][thread] = edges scanned (drives compute time).
	work [][][]int64

	finished int
	total    int
	finishAt sim.Time
	levels   int
}

// NewGraph500 generates the graph and BFS trace.
func NewGraph500(cfg Graph500Config) *Graph500 {
	if cfg.Scale < 4 || cfg.Scale > 22 || len(cfg.Cores) == 0 {
		panic("workload: invalid graph500 config")
	}
	g := &Graph500{cfg: cfg}
	g.generate()
	g.computeTrace()
	return g
}

// generate builds a skewed random graph (a cheap stand-in for the
// Kronecker generator: endpoints drawn with a quadratic bias toward low
// vertex ids, giving the heavy-tailed degree distribution BFS cares about).
func (g *Graph500) generate() {
	rng := sim.NewRand(graph500Seed)
	v := 1 << uint(g.cfg.Scale)
	e := v * graph500EdgeFactor
	g.adj = make([][]int32, v)
	pick := func() int32 {
		f := rng.Float64()
		return int32(f * f * float64(v))
	}
	for i := 0; i < e; i++ {
		a, b := pick(), pick()
		if a == b {
			continue
		}
		g.adj[a] = append(g.adj[a], b)
		g.adj[b] = append(g.adj[b], a)
	}
	g.csrOff = make([]int64, v+1)
	var off int64
	for i := 0; i < v; i++ {
		g.csrOff[i] = off
		off += int64(len(g.adj[i]))
	}
	g.csrOff[v] = off
	g.vertPages = (v + vertsPerPage - 1) / vertsPerPage
	g.edgePages = int(off+edgesPerPage-1) / edgesPerPage
}

// computeTrace runs the real BFS per root and records, per level and per
// thread, which pages that thread's share of the frontier touches. Threads
// own contiguous vertex ranges so page affinity is stable across levels —
// the property AutoNUMA exploits.
func (g *Graph500) computeTrace() {
	v := len(g.adj)
	threads := len(g.cfg.Cores)
	chunk := (v + threads - 1) / threads
	ownerOf := func(vertex int32) int { return int(vertex) / chunk }

	rng := sim.NewRand(graph500Seed ^ 0xabcdef)
	for r := 0; r < g.cfg.Roots; r++ {
		root := int32(rng.Intn(v))
		for len(g.adj[root]) == 0 {
			root = int32(rng.Intn(v))
		}
		level := make([]int32, v)
		for i := range level {
			level[i] = -1
		}
		level[root] = 0
		frontier := []int32{root}
		var rootTrace [][][]pt.VPN
		var rootWork [][]int64
		for depth := int32(0); len(frontier) > 0; depth++ {
			pages := make([]map[pt.VPN]struct{}, threads)
			work := make([]int64, threads)
			for t := range pages {
				pages[t] = make(map[pt.VPN]struct{})
			}
			var next []int32
			for _, u := range frontier {
				t := ownerOf(u)
				pages[t][pt.VPN(int(u)/vertsPerPage)] = struct{}{}
				for ep := g.csrOff[u] / edgesPerPage; ep <= (g.csrOff[u+1]-1)/edgesPerPage && g.csrOff[u] < g.csrOff[u+1]; ep++ {
					pages[t][pt.VPN(g.vertPages)+pt.VPN(ep)] = struct{}{}
				}
				work[t] += int64(len(g.adj[u]))
				for _, w := range g.adj[u] {
					pages[t][pt.VPN(int(w)/vertsPerPage)] = struct{}{}
					if level[w] < 0 {
						level[w] = depth + 1
						next = append(next, w)
					}
				}
			}
			perThread := make([][]pt.VPN, threads)
			for t := range pages {
				list := make([]pt.VPN, 0, len(pages[t]))
				for p := range pages[t] {
					list = append(list, p)
				}
				sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
				perThread[t] = list
			}
			rootTrace = append(rootTrace, perThread)
			rootWork = append(rootWork, work)
			frontier = next
		}
		g.trace = append(g.trace, rootTrace)
		g.work = append(g.work, rootWork)
		g.levels += len(rootTrace)
	}
}

// Setup spawns the loader and the per-core BFS workers.
func (g *Graph500) Setup(k *kernel.Kernel) {
	g.k = k
	g.met.pageTouches = k.Metrics.NewCounter("graph500.page_touches")
	proc := k.NewProcess()
	gate := NewGate(k)
	totalPages := g.vertPages + g.edgePages
	var base pt.VPN

	// Loader: generation phase first-touches everything on node 0.
	proc.Spawn(g.cfg.Cores[0], kernel.Script(
		func(*kernel.Thread) kernel.Op {
			return kernel.Mmap(totalPages, true).Populate(0)
		},
		func(th *kernel.Thread) kernel.Op {
			base = th.LastAddr
			gate.Open()
			return kernel.Op{}
		},
	))

	threads := len(g.cfg.Cores)
	barrier := NewBarrier(k, threads)
	g.total = threads
	// The per-edge scan cost beyond the page-granular DRAM/TLB modelling.
	const perEdge = 3 * sim.Nanosecond

	for t, core := range g.cfg.Cores {
		t := t
		rootIdx, levelIdx := 0, 0
		step := 0
		var abs []pt.VPN // the level's pages, reused once its touch ends
		proc.Spawn(core, kernel.Loop(func(th *kernel.Thread) kernel.Op {
			switch step {
			case 0:
				step = 1
				return gate.Wait()
			case 1:
				if rootIdx >= len(g.trace) {
					g.finished++
					if g.finished == g.total {
						g.finishAt = g.k.Now()
					}
					return kernel.Op{}
				}
				if levelIdx >= len(g.trace[rootIdx]) {
					rootIdx++
					levelIdx = 0
					return kernel.Compute(sim.Microsecond)
				}
				rel := g.trace[rootIdx][levelIdx][t]
				w := g.work[rootIdx][levelIdx][t]
				levelIdx++
				step = 2
				if len(rel) == 0 {
					return kernel.Compute(sim.Microsecond)
				}
				abs = abs[:0]
				for _, p := range rel {
					abs = append(abs, base+p)
				}
				g.met.pageTouches.Add(uint64(len(abs)))
				_ = w
				return kernel.Touch(&abs, true).Repeat(16)
			case 2:
				// Edge-scan compute for the level just touched.
				step = 3
				w := g.work[rootIdx][max(0, levelIdx-1)][t]
				return kernel.Compute(sim.Time(w)*perEdge + 2*sim.Microsecond)
			case 3:
				step = 1
				return barrier.Wait()
			default:
				panic("unreachable")
			}
		}))
	}
}

// Done reports completion of all roots on all threads.
func (g *Graph500) Done() bool { return g.total > 0 && g.finished == g.total }

// FinishTime is when the last worker completed.
func (g *Graph500) FinishTime() sim.Time { return g.finishAt }

// Levels reports total BFS levels across roots (for tests).
func (g *Graph500) Levels() int { return g.levels }
