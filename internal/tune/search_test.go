package tune

import (
	"strings"
	"testing"

	"latr/internal/kernel"
	"latr/internal/sim"
)

// churnOnly keeps the property tests fast: the two churn cells exercise
// every knob the search touches in a few milliseconds of simulated time,
// while the memcached cell costs two orders of magnitude more wall time.
func churnOnly() []Cell {
	return []Cell{
		{Workload: "churn", Machine: "2x8"},
		{Workload: "churn", Machine: "8x15"},
	}
}

func smallSearch(workers int) SearchConfig {
	return SearchConfig{
		Seed:        11,
		Quick:       true,
		Population:  4,
		Generations: 2,
		Workers:     workers,
		Cells:       churnOnly(),
	}
}

func mustSearch(t *testing.T, cfg SearchConfig) *Result {
	t.Helper()
	res, err := Search(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// mustEvaluator builds a quick-mode evaluator.
func mustEvaluator(t *testing.T, cells []Cell, seed uint64, workers int) *Evaluator {
	t.Helper()
	ev, err := NewEvaluator(cells, true, seed, workers)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// TestSearchRejectsBadCells pins that a cell naming an unknown machine
// or workload is an error from Search and NewEvaluator, even behind a
// good cell, instead of a panic on a fan worker goroutine.
func TestSearchRejectsBadCells(t *testing.T) {
	good := Cell{Workload: "churn", Machine: "2x8"}
	for _, bad := range []Cell{
		{Workload: "churn", Machine: "9x9"},
		{Workload: "nope", Machine: "2x8"},
		{Workload: "memcached", Machine: "large-ish"},
	} {
		cells := []Cell{good, bad}
		want := "tune: cell " + bad.String() + ": "
		res, err := Search(SearchConfig{Quick: true, Population: 2, Generations: 1, Workers: 2, Cells: cells})
		if err == nil || res != nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("Search(%v) = %v, %v; want an error starting %q", cells, res, err, want)
		}
		ev, err := NewEvaluator(cells, true, 1, 2)
		if err == nil || ev != nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("NewEvaluator(%v) = %v, %v; want an error starting %q", cells, ev, err, want)
		}
	}
}

// TestSearchDeterministicAcrossWorkers is the satellite property test:
// the same seed produces a byte-identical generation history at 1, 2, 4
// and 8 workers. Every stochastic draw happens single-threaded between
// generations; the fan only carries pure fitness evaluations.
func TestSearchDeterministicAcrossWorkers(t *testing.T) {
	ref := mustSearch(t, smallSearch(1))
	refDump := ref.HistoryDump()
	refDigest := ref.HistoryDigest()
	if refDump == "" {
		t.Fatal("empty history dump")
	}
	for _, workers := range []int{2, 4, 8} {
		r := mustSearch(t, smallSearch(workers))
		if got := r.HistoryDump(); got != refDump {
			t.Fatalf("history at %d workers diverged from 1 worker:\n--- %d workers ---\n%s--- 1 worker ---\n%s",
				workers, workers, got, refDump)
		}
		if got := r.HistoryDigest(); got != refDigest {
			t.Fatalf("digest at %d workers = %x, want %x", workers, got, refDigest)
		}
		if r.Best.Encoded != ref.Best.Encoded || r.Best.Fitness.Score != ref.Best.Fitness.Score {
			t.Fatalf("best candidate at %d workers differs: %s (%.6f) vs %s (%.6f)",
				workers, r.Best.Encoded, r.Best.Fitness.Score, ref.Best.Encoded, ref.Best.Fitness.Score)
		}
	}
	// The baseline genome is generation 0's seeded default and the global
	// best can never rank below it — defaults stay in the comparison set.
	if ref.Baseline.Encoded != Space().Encode(Space().Defaults()) {
		t.Fatalf("baseline candidate is %s, want the paper defaults", ref.Baseline.Encoded)
	}
	if ref.Best.Fitness.Score > ref.Baseline.Fitness.Score {
		t.Fatalf("best %.6f ranks worse than seeded baseline %.6f", ref.Best.Fitness.Score, ref.Baseline.Fitness.Score)
	}
}

// TestWorseGenomeNeverOutranksDefaults is the satellite monotonicity
// test: genomes that are deliberately pathological — fall back to sync
// IPIs at occupancy 1, or a 4-deep state queue — must score strictly
// worse (higher) than the paper defaults, which by construction score
// exactly 1.0 against their own baseline.
func TestWorseGenomeNeverOutranksDefaults(t *testing.T) {
	ev := mustEvaluator(t, churnOnly(), 3, 0)
	def := ev.Fitness(kernel.DefaultTunables())
	if def.Score != 1.0 {
		t.Fatalf("defaults score %.9f against their own baseline, want exactly 1.0", def.Score)
	}
	for _, cs := range def.Cells {
		if cs.Score != 1.0 {
			t.Fatalf("defaults score %.9f in cell %s, want exactly 1.0", cs.Score, cs.Cell)
		}
	}

	syncAlways := kernel.DefaultTunables()
	syncAlways.FallbackOccupancy = 1 // every op takes the sync-IPI path
	shallow := kernel.DefaultTunables()
	shallow.QueueDepth = 4 // queue fills almost immediately
	shallow.FallbackOccupancy = 4
	for _, tc := range []struct {
		name   string
		genome kernel.Tunables
	}{
		{"FallbackOccupancy=1", syncAlways},
		{"QueueDepth=4", shallow},
	} {
		f := ev.Fitness(tc.genome)
		if f.Score <= def.Score {
			t.Errorf("%s scores %.6f, does not rank worse than defaults %.6f", tc.name, f.Score, def.Score)
		}
	}
}

// TestFitnessIsPure pins that evaluation is a pure function of the
// genome: re-measuring the same genome on the same evaluator returns the
// identical Fitness, which is what the search's cache and the fan's
// worker-count invariance rest on.
func TestFitnessIsPure(t *testing.T) {
	ev := mustEvaluator(t, churnOnly(), 5, 2)
	g := Space().Random(sim.NewRand(42))
	a, b := ev.Fitness(g), ev.Fitness(g)
	if a.Score != b.Score {
		t.Fatalf("re-evaluation drifted: %.9f vs %.9f", a.Score, b.Score)
	}
	for i := range a.Cells {
		if a.Cells[i] != b.Cells[i] {
			t.Fatalf("cell %s drifted: %+v vs %+v", a.Cells[i].Cell, a.Cells[i], b.Cells[i])
		}
	}
}
