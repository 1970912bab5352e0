package swap

import (
	"strings"
	"testing"

	"latr/internal/sim"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string // "" = valid
	}{
		{"zero-is-default", Config{}, ""},
		{"defaults", DefaultConfig(), ""},
		{"neg-low", Config{LowWatermarkFrames: -1}, "LowWatermarkFrames"},
		{"neg-high", Config{HighWatermarkFrames: -2}, "HighWatermarkFrames"},
		{"inverted", Config{LowWatermarkFrames: 600, HighWatermarkFrames: 500}, "inverted"},
		{"low-only", Config{LowWatermarkFrames: 600}, ""}, // high defaults later; not inverted per se
		{"neg-period", Config{ScanPeriod: -sim.Millisecond}, "ScanPeriod"},
		{"neg-batch", Config{BatchPages: -4}, "BatchPages"},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want error mentioning %q", c.name, err, c.want)
		}
	}
}

func TestConfigClamping(t *testing.T) {
	// A zero period takes the default; a too-small one clamps to the floor
	// instead of letting the daemon spin — mirroring kernel.Config.
	if got := (Config{}).withDefaults().ScanPeriod; got != DefaultConfig().ScanPeriod {
		t.Fatalf("zero ScanPeriod became %v, want default %v", got, DefaultConfig().ScanPeriod)
	}
	if got := (Config{ScanPeriod: sim.Microsecond}).withDefaults().ScanPeriod; got != minScanPeriod {
		t.Fatalf("tiny ScanPeriod became %v, want clamp floor %v", got, minScanPeriod)
	}
}

func TestNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted inverted watermarks")
		}
	}()
	New(Config{LowWatermarkFrames: 10, HighWatermarkFrames: 5})
}
