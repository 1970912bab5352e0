package workload

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestByNameBuildsEveryName resolves each listed name (parsec through one
// suite profile) and checks it builds the workload the name promises, in
// its paper configuration on cores 0..n-1.
func TestByNameBuildsEveryName(t *testing.T) {
	want := []string{"micro", "apache", "nginx", "parsec:<name>", "graph500", "pbzip2", "metis", "ocean", "fluidanimate"}
	if got := Names(); !slices.Equal(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	cl := coresN(4)
	canneal, _ := ParsecProfileByName("canneal")
	for name, built := range map[string]Workload{
		"micro":          NewMicro(MicroConfig{Cores: 4, Pages: 2, Iters: 3}),
		"apache":         NewApache(DefaultApacheConfig(cl)),
		"nginx":          NewNginx(cl),
		"parsec:canneal": NewParsec(canneal, cl),
		"graph500":       NewGraph500(DefaultGraph500Config(cl)),
		"pbzip2":         NewPBZIP2(DefaultPBZIP2Config(cl)),
		"metis":          NewMetis(cl),
		"ocean":          NewGrid(OceanConfig(cl)),
		"fluidanimate":   NewGrid(FluidanimateConfig(cl)),
	} {
		w, err := ByName(name, 4, 2, 3)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if !reflect.DeepEqual(w, built) {
			t.Errorf("ByName(%q) = %+v, want %+v", name, w, built)
		}
	}
}

// TestByNameErrors checks that every bad input is an error naming the
// bad value, where the constructors would panic.
func TestByNameErrors(t *testing.T) {
	for _, tc := range []struct {
		name                string
		cores, pages, iters int
		bad                 string
	}{
		{"bogus", 4, 1, 1, `"bogus"`},
		{"parsec", 4, 1, 1, `"parsec"`},
		{"parsec:nope", 4, 1, 1, `"nope"`},
		{"micro:x", 4, 1, 1, `"micro:x"`},
		{"micro", 4, 0, 1, "pages 0"},
		{"micro", 4, 1, 0, "iters 0"},
		{"apache", 0, 1, 1, "got 0"},
		{"parsec:canneal", -1, 1, 1, "got -1"},
	} {
		if _, err := ByName(tc.name, tc.cores, tc.pages, tc.iters); err == nil || !strings.Contains(err.Error(), tc.bad) {
			t.Errorf("ByName(%q, %d, %d, %d) error = %v, want one naming %s",
				tc.name, tc.cores, tc.pages, tc.iters, err, tc.bad)
		}
	}
}
