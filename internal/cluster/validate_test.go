package cluster

import (
	"strings"
	"testing"

	"latr/internal/sim"
)

// TestValidateRejectsEachField walks every validated field through its
// illegal region and asserts Validate names the field, mirroring the
// swap.Config error-path tests.
func TestValidateRejectsEachField(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"negative nodes", func(c *Config) { c.Nodes = -1 }, "Nodes"},
		{"too many nodes", func(c *Config) { c.Nodes = maxNodes + 1 }, "Nodes"},
		{"bad machine", func(c *Config) { c.Machine = "banana" }, "machine"},
		{"bad policy", func(c *Config) { c.Policy = "ostrich" }, "policy"},
		{"bad router", func(c *Config) { c.Router = "dartboard" }, "router"},
		{"negative keys", func(c *Config) { c.Keys = -1 }, "Keys"},
		{"negative value pages", func(c *Config) { c.ValuePages = -1 }, "ValuePages"},
		{"negative hot keys", func(c *Config) { c.HotKeys = -1 }, "HotKeys"},
		{"hot keys exceed keys", func(c *Config) { c.Keys = 10; c.HotKeys = 11 }, "HotKeys"},
		{"hot traffic pct high", func(c *Config) { c.HotTrafficPct = 101 }, "HotTrafficPct"},
		{"hot traffic pct low", func(c *Config) { c.HotTrafficPct = -1 }, "HotTrafficPct"},
		{"set pct high", func(c *Config) { c.SetPct = 101 }, "SetPct"},
		{"set pct low", func(c *Config) { c.SetPct = -1 }, "SetPct"},
		{"negative think", func(c *Config) { c.Think = -1 }, "Think"},
		{"negative workers", func(c *Config) { c.WorkersPerNode = -1 }, "WorkersPerNode"},
		{"machine too small for workers", func(c *Config) { c.Machine = "2x2" }, "WorkersPerNode"},
		{"workers exceed machine", func(c *Config) { c.WorkersPerNode = 8 }, "WorkersPerNode"},
		{"negative frames", func(c *Config) { c.MemFramesPerNode = -1 }, "MemFramesPerNode"},
		{"negative arrival rate", func(c *Config) { c.ArrivalRate = -1 }, "ArrivalRate"},
		{"negative rate limit", func(c *Config) { c.RateLimit = -1 }, "RateLimit"},
		{"negative burst", func(c *Config) { c.Burst = -1 }, "Burst"},
		{"negative timeout", func(c *Config) { c.RequestTimeout = -1 }, "RequestTimeout"},
		{"negative deadline", func(c *Config) { c.RequestDeadline = -1 }, "RequestDeadline"},
		{"deadline under timeout", func(c *Config) {
			c.RequestTimeout = 5 * sim.Millisecond
			c.RequestDeadline = sim.Millisecond
		}, "RequestDeadline"},
		{"negative retry budget", func(c *Config) { c.RetryBudget = -1 }, "RetryBudget"},
		{"retry budget too large", func(c *Config) { c.RetryBudget = 17 }, "RetryBudget"},
		{"negative backoff base", func(c *Config) { c.BackoffBase = -1 }, "BackoffBase"},
		{"negative backoff cap", func(c *Config) { c.BackoffCap = -1 }, "BackoffCap"},
		{"cap under base", func(c *Config) {
			c.BackoffBase = sim.Millisecond
			c.BackoffCap = sim.Microsecond
		}, "BackoffCap"},
		{"negative hedge delay", func(c *Config) { c.HedgeDelay = -1 }, "HedgeDelay"},
		{"negative queue depth", func(c *Config) { c.QueueDepth = -1 }, "QueueDepth"},
		{"negative slo hot", func(c *Config) { c.SLOHot = -1 }, "SLOHot"},
		{"negative slo cold", func(c *Config) { c.SLOCold = -1 }, "SLOCold"},
		{"negative duration", func(c *Config) { c.Duration = -1 }, "Duration"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var cfg Config
			tc.mut(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the field %q", err, tc.want)
			}
		})
	}
}

func TestValidateAcceptsZeroAndDefaults(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	d := (Config{}).withDefaults()
	if err := d.Validate(); err != nil {
		t.Fatalf("defaulted config rejected: %v", err)
	}
	if d.Nodes == 0 || d.RequestTimeout == 0 || d.RetryBudget == 0 {
		t.Fatalf("withDefaults left zero fields: %+v", d)
	}
}

func TestNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted an invalid config")
		}
	}()
	New(Config{Nodes: -3})
}
