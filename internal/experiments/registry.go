package experiments

import "fmt"

// Spec is one registered experiment: the id latr-bench -exp selects it by,
// whether it belongs to the paper's own evaluation, and its runner.
type Spec struct {
	ID    string
	Paper bool // a table, figure or case study of the paper (§6)
	Run   func(Options) *Table
}

// registry is the one list of experiments, in the order latr-bench runs
// them: the paper's tables, figures and case studies in paper order, then
// the ablations and extensions. Adding an experiment means adding a line.
var registry = []Spec{
	{"table1", true, Table1},
	{"table2", true, Table2},
	{"table3", true, Table3},
	{"fig6", true, Fig6},
	{"fig7", true, Fig7},
	{"fig8", true, Fig8},
	{"fig9", true, Fig9},
	{"fig10", true, Fig10},
	{"fig11", true, Fig11},
	{"fig12", true, Fig12},
	{"table4", true, Table4},
	{"table5", true, Table5},
	{"mem", true, MemOverhead},
	{"ipi", true, IPITable},
	{"remote", true, RemoteMemory},
	{"abl-depth", false, AblationQueueDepth},
	{"abl-sweep", false, AblationSweepTriggers},
	{"abl-delay", false, AblationReclaimDelay},
	{"abl-transport", false, AblationTransport},
	{"abl-variants", false, AblationPCIDAndTickless},
	{"abl-thp", false, AblationTHP},
	{"cluster", false, Cluster},
	{"virt", false, Virt},
	{"ptrepl", false, Ptrepl},
	{"tune", false, Tune},
}

// lookup finds a registered experiment by id.
func lookup(id string) (Spec, bool) {
	for _, s := range registry {
		if s.ID == id {
			return s, true
		}
	}
	return Spec{}, false
}

// ByID runs one registered experiment.
func ByID(id string, o Options) (*Table, error) {
	s, ok := lookup(id)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q", id)
	}
	return s.Run(o), nil
}

// IDs lists every experiment id in registry order.
func IDs() []string { return ids(false) }

// PaperIDs lists the paper's own experiments, without the ablations and
// extensions, in paper order.
func PaperIDs() []string { return ids(true) }

func ids(paperOnly bool) []string {
	var out []string
	for _, s := range registry {
		if s.Paper || !paperOnly {
			out = append(out, s.ID)
		}
	}
	return out
}
