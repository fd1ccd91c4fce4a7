package experiments

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"bulksc"
)

// Experiment is one entry of the experiment catalog: a named sweep, the
// inputs it consumes with their defaults, and the function that runs it.
type Experiment struct {
	// Name is the experiment's spelling in `sweep -exp` and in a service
	// request's "exp" field.
	Name string
	// Heading titles the experiment's table in cmd/sweep's report. A %d
	// verb, if present, takes the machine size (see Title).
	Heading string
	// Apps is the conventional application suite used when the caller
	// names none; nil means every registered application.
	Apps []string
	// Procs is the default machine-size list; nil means the experiment
	// takes no machine size.
	Procs []int
	// FirstProcsOnly marks an experiment that runs only the first
	// machine size of the list it is given.
	FirstProcsOnly bool
	// Arbiters is the default arbiter-count list; nil means the
	// experiment takes no arbiter counts.
	Arbiters []int
	// OwnCampaigns marks an experiment that iterates the fault campaigns
	// itself and ignores Params.FaultCampaign; every other experiment
	// runs each simulation under it (default "none").
	OwnCampaigns bool
	// Run executes the experiment on inputs returned by Resolve and
	// returns its typed rows and its formatted table.
	Run func(in Inputs) (rows any, table string, err error)
}

// Inputs is one experiment run: the sweep Params plus the machine sizes
// and arbiter counts of the experiments that take them.
type Inputs struct {
	Params
	Procs    []int
	Arbiters []int
}

// maxArbiters is the largest arbiter tier bulksc.DefaultArbitersFor pairs
// with a machine.
const maxArbiters = 64

// Catalog returns the experiments in `sweep -exp all` order; the fault
// report comes last, as it multiplies the matrix by every campaign.
// cmd/sweep and the sweep service (internal/sweepsrv) both dispatch
// through it, so the experiment list, its defaults and the validation of
// its inputs exist once.
func Catalog() []Experiment {
	return []Experiment{
		{
			Name:    "fig9",
			Heading: "=== Figure 9: performance normalized to RC (higher is better) ===",
			Run:     tabulate(Fig9, FormatFig9),
		},
		{
			Name:    "fig10",
			Heading: "=== Figure 10: BSC_dypvt chunk-size sensitivity (vs RC) ===",
			Run:     tabulate(Fig10, FormatFig10),
		},
		{
			Name:    "table3",
			Heading: "=== Table 3: BulkSC characterization ===",
			Run:     tabulate(Table3, FormatTable3),
		},
		{
			Name:    "table4",
			Heading: "=== Table 4: commit and coherence operations (BSC_dypvt) ===",
			Run:     tabulate(Table4, FormatTable4),
		},
		{
			Name:    "fig11",
			Heading: "=== Figure 11: traffic normalized to RC (R=RC, E=exact, N=no-RSig, B=BSC_dypvt) ===",
			Run:     tabulate(Fig11, FormatFig11),
		},
		{
			Name:           "arbiters",
			Heading:        "=== §4.2.3 ablation: distributed arbiter at %d cores (speedup vs 1 arbiter) ===",
			Procs:          []int{16},
			FirstProcsOnly: true,
			Arbiters:       []int{1, 2, 4, 8},
			Run: func(in Inputs) (any, string, error) {
				rows, err := ArbScale(in.Params, in.Procs[0], in.Arbiters)
				if err != nil {
					return nil, "", err
				}
				return rows, FormatArbScale(rows, in.Arbiters), nil
			},
		},
		{
			Name:    "sigspace",
			Heading: "=== §6 ablation: signature design space (BSC_dypvt) ===",
			// The apps whose squash and traffic numbers are most
			// sensitive to signature aliasing.
			Apps: []string{"radix", "ocean", "water-sp", "sjbb2k"},
			Run:  tabulate(SigSpace, FormatSigSpace),
		},
		{
			Name:    "scaling",
			Heading: "=== Big-machine scaling: BSC_dypvt with default arbiter tier and G-arbiter shards ===",
			// The two SPLASH-2 kernels with the most regular
			// partitioning, so the curve measures the protocol rather
			// than load imbalance.
			Apps:  []string{"radix", "fft"},
			Procs: []int{8, 16, 64},
			Run: func(in Inputs) (any, string, error) {
				points, err := Scaling(in.Params, in.Procs)
				if err != nil {
					return nil, "", err
				}
				return points, FormatScaling(points), nil
			},
		},
		{
			Name:         "faults",
			Heading:      "=== Fault-injection campaigns: BSC_dypvt under adversarial schedules (SC + witness checked) ===",
			OwnCampaigns: true,
			Run:          tabulate(FaultReport, FormatFaultReport),
		},
	}
}

// tabulate makes the Run function of an experiment whose harness takes
// only Params.
func tabulate[R any](run func(Params) ([]R, error), format func([]R) string) func(Inputs) (any, string, error) {
	return func(in Inputs) (any, string, error) {
		rows, err := run(in.Params)
		if err != nil {
			return nil, "", err
		}
		return rows, format(rows), nil
	}
}

// Names lists the catalog's experiment names in catalog order.
func Names() []string {
	var names []string
	for _, e := range Catalog() {
		names = append(names, e.Name)
	}
	return names
}

// Lookup returns the catalog entry called name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Catalog() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Title returns the experiment's table heading for resolved inputs.
func (e Experiment) Title(in Inputs) string {
	if e.FirstProcsOnly {
		return fmt.Sprintf(e.Heading, in.Procs[0])
	}
	return e.Heading
}

// Validate is the one check of experiment inputs: a non-negative work
// budget, applications known and distinct (a repeated app would run its
// cells twice and report twin rows), machine sizes in
// [1, bulksc.MaxProcs], arbiter counts in [1, 64], and a known fault
// campaign. Every supplied value is checked, including values the chosen
// experiment will ignore, so a typo never passes silently.
func (in Inputs) Validate() error {
	if in.Work < 0 {
		return fmt.Errorf("work must be positive, got %d", in.Work)
	}
	valid := bulksc.Apps()
	seen := make(map[string]bool, len(in.Apps))
	for _, a := range in.Apps {
		if !slices.Contains(valid, a) {
			return fmt.Errorf("unknown application %q (valid: %s)", a, strings.Join(valid, ", "))
		}
		if seen[a] {
			return fmt.Errorf("duplicate application %q", a)
		}
		seen[a] = true
	}
	for _, n := range in.Procs {
		if n < 1 || n > bulksc.MaxProcs {
			return fmt.Errorf("procs value %d out of range [1,%d]", n, bulksc.MaxProcs)
		}
	}
	for _, n := range in.Arbiters {
		if n < 1 || n > maxArbiters {
			return fmt.Errorf("arbiters value %d out of range [1,%d]", n, maxArbiters)
		}
	}
	_, err := bulksc.NewFaultPlan(in.FaultCampaign, 1)
	return err
}

// Resolve validates in and returns the inputs e runs on: every default of
// the catalog entry and of Params materialized, and every input e ignores
// cleared. The result is e's canonical configuration; resolving it again
// is a no-op.
func (e Experiment) Resolve(in Inputs) (Inputs, error) {
	if err := in.Validate(); err != nil {
		return Inputs{}, err
	}
	if len(in.Apps) == 0 {
		in.Apps = e.Apps
	}
	in.Params = in.Params.withDefaults()
	in.Apps = slices.Clone(in.Apps)
	in.Procs = orDefault(in.Procs, e.Procs)
	if e.FirstProcsOnly {
		in.Procs = in.Procs[:1]
	}
	in.Arbiters = orDefault(in.Arbiters, e.Arbiters)
	switch {
	case e.OwnCampaigns:
		in.FaultCampaign = ""
	case in.FaultCampaign == "":
		in.FaultCampaign = "none"
	}
	return in, nil
}

// orDefault returns a copy of the given list, of def when none is given,
// and nil when def is nil: the experiment ignores the input.
func orDefault(given, def []int) []int {
	if def == nil {
		return nil
	}
	if len(given) == 0 {
		given = def
	}
	return slices.Clone(given)
}

// ParseProcs parses a comma-separated machine-size list such as "8,16,64".
// Each element must be a plain decimal integer in [1, bulksc.MaxProcs].
func ParseProcs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 || n > bulksc.MaxProcs {
			return nil, fmt.Errorf("procs value %q must be an integer in [1,%d]", part, bulksc.MaxProcs)
		}
		out = append(out, n)
	}
	return out, nil
}
