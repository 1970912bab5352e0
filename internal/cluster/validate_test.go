package cluster

import (
	"strings"
	"testing"
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
		{"machine too small for workers", func(c *Config) { c.Machine = "2x2" }, "too small for 4 workers"},
		{"negative arrival rate", func(c *Config) { c.ArrivalRate = -1 }, "ArrivalRate"},
		{"arrival rate beyond the clock", func(c *Config) { c.ArrivalRate = maxArrivalRate + 1 }, "ArrivalRate"},
		{"negative hedge delay", func(c *Config) { c.HedgeDelay = -1 }, "HedgeDelay"},
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
	if err := (Config{ArrivalRate: maxArrivalRate}).Validate(); err != nil {
		t.Fatalf("one arrival per nanosecond rejected: %v", err)
	}
	d := (Config{}).withDefaults()
	if err := d.Validate(); err != nil {
		t.Fatalf("defaulted config rejected: %v", err)
	}
	if d.Nodes == 0 || d.ArrivalRate == 0 || d.Duration == 0 {
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
