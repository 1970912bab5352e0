package cluster

import (
	"testing"

	"latr/internal/sim"
)

// newFleet builds an unrun 3-node cluster for poking at routers and
// health directly; nothing is simulated, state is set by hand.
func newFleet(t *testing.T, routerName string) *Cluster {
	t.Helper()
	cfg := testConfig()
	cfg.Router = routerName
	return New(cfg)
}

func TestRoundRobinCyclesAndSkipsDown(t *testing.T) {
	c := newFleet(t, "round-robin")
	got := []int{}
	for i := 0; i < 6; i++ {
		got = append(got, c.router.Pick(0, 0, -1))
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round-robin sequence %v, want %v", got, want)
		}
	}
	c.peers[1].crashed = true
	got = got[:0]
	for i := 0; i < 4; i++ {
		got = append(got, c.router.Pick(0, 0, -1))
	}
	for _, n := range got {
		if n == 1 {
			t.Fatalf("round-robin routed to a crashed node: %v", got)
		}
	}
}

func TestRoutersAvoidExcludedNode(t *testing.T) {
	for _, name := range RouterNames() {
		c := newFleet(t, name)
		for trial := 0; trial < 8; trial++ {
			if got := c.router.Pick(0, trial, 2); got == 2 {
				t.Fatalf("%s routed a retry back to the excluded node", name)
			}
		}
		// The excluded node is still better than nothing: with every other
		// node down it must be picked rather than returning -1.
		c.peers[0].crashed = true
		c.peers[1].crashed = true
		if got := c.router.Pick(0, 0, 2); got != 2 {
			t.Fatalf("%s returned %d with only the excluded node up", name, got)
		}
		// And with the whole fleet down there is nobody to pick.
		c.peers[2].crashed = true
		if got := c.router.Pick(0, 0, -1); got != -1 {
			t.Fatalf("%s picked %d from an all-down fleet", name, got)
		}
	}
}

func TestLeastLoadedPicksShortestQueue(t *testing.T) {
	c := newFleet(t, "least-loaded")
	c.peers[0].outstanding = 5
	c.peers[1].outstanding = 1
	c.peers[2].outstanding = 3
	if got := c.router.Pick(0, 0, -1); got != 1 {
		t.Fatalf("least-loaded picked %d, want 1", got)
	}
	// Ties break to the lowest id, keeping the pick deterministic.
	c.peers[1].outstanding = 3
	c.peers[0].outstanding = 3
	if got := c.router.Pick(0, 0, -1); got != 0 {
		t.Fatalf("least-loaded tie-break picked %d, want 0", got)
	}
}

func TestAffinityHomesKeysAndSpills(t *testing.T) {
	c := newFleet(t, "affinity")
	for key := 0; key < 9; key++ {
		if got := c.router.Pick(0, key, -1); got != key%3 {
			t.Fatalf("key %d routed to %d, want home %d", key, got, key%3)
		}
	}
	// A down home spills to the next node, consistent-hashing style.
	c.peers[1].crashed = true
	if got := c.router.Pick(0, 4, -1); got != 2 {
		t.Fatalf("key 4 with home 1 down routed to %d, want 2", got)
	}
}

func TestHealthPrecedenceAndTransitions(t *testing.T) {
	c := newFleet(t, "round-robin")
	n := c.peers[0]
	now := sim.Time(0)
	if h := n.health(now); h != Healthy {
		t.Fatalf("fresh node health %v", h)
	}
	n.slowUntil = now + sim.Millisecond
	if h := n.health(now); h != Degraded {
		t.Fatalf("slow window health %v, want Degraded", h)
	}
	// Crash outranks the open slow window.
	n.crashed = true
	if h := n.health(now); h != Down {
		t.Fatalf("crashed health %v, want Down", h)
	}
	// Restart passes through Recovering even with the slow window open.
	n.crashed = false
	n.recoverUntil = now + sim.Millisecond
	if h := n.health(now); h != Recovering {
		t.Fatalf("restarted health %v, want Recovering", h)
	}
	// Suspicion alone is Down, and clearing it exposes Recovering.
	n.suspected = true
	if h := n.health(now); h != Down {
		t.Fatalf("suspected health %v, want Down", h)
	}
	n.suspected = false
	// Windows expire in precedence order as time passes.
	if h := n.health(now + 2*sim.Millisecond); h != Healthy {
		t.Fatalf("health %v after every window expired, want Healthy", h)
	}

	// noteHealth counts only edges, not repeated reads.
	base := c.met.Counter("cluster.health.down")
	n.crashed = true
	n.noteHealth(now)
	n.noteHealth(now)
	if got := c.met.Counter("cluster.health.down") - base; got != 1 {
		t.Fatalf("down edges counted %d, want 1", got)
	}
}

func TestHealthStrings(t *testing.T) {
	want := map[Health]string{Healthy: "healthy", Degraded: "degraded", Down: "down", Recovering: "recovering"}
	for h, s := range want {
		if h.String() != s {
			t.Fatalf("Health(%d).String() = %q, want %q", h, h.String(), s)
		}
	}
	if Health(200).String() != "unknown" {
		t.Fatal("out-of-range health must stringify as unknown")
	}
}
