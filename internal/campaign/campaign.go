// Package campaign turns declarative parameter-space descriptions into
// executed, persisted, resumable experiment sweeps.
//
// A Campaign names a base Spec and a set of Axes — per-field value lists
// combined as a full grid or a seeded random sample of it. The engine
// expands the campaign into concrete Specs, keys each by its canonical
// content hash (harness.SpecKey), executes only the cells a Store has
// not already answered, and aggregates the results per group of non-seed
// axis values. An interrupted campaign re-run against the same store is
// therefore resumable by construction: finished cells are hits, nothing
// is recomputed.
package campaign

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"optsync/internal/clock"
	"optsync/internal/harness"
	"optsync/internal/sim"
)

// Axis sweeps one spec field over a list of values. Values are the
// field's textual form (the same syntax the CLI accepts); the typed
// helpers Ints, Floats, and Strings build them from Go values. For
// threshold searches the values must be ordered from easiest to hardest,
// i.e. the pass/fail predicate must flip at most once along the axis.
type Axis struct {
	// Field names a sweepable spec field; Fields lists the vocabulary.
	Field string
	// Values are applied via the field's parser, in order. Grid
	// expansion varies the last listed axis fastest.
	Values []string
}

// Campaign declares a parameter-space sweep over a base spec.
type Campaign struct {
	// Name labels the campaign in output rows.
	Name string
	// Base supplies every field the axes do not sweep.
	Base harness.Spec
	// Axes are combined as a cartesian grid (or a sample of it).
	Axes []Axis
	// Seeds replicates every grid point with consecutive seeds
	// (Seed, Seed+1, ...); values < 1 mean 1. Replicates form the
	// population the per-group statistics summarize.
	Seeds int
	// Samples > 0 draws that many distinct grid points (without
	// replacement) instead of the full grid, deterministically from
	// SampleSeed. Samples >= the grid size degrades to the full grid.
	Samples int
	// SampleSeed seeds the sample draw; campaigns with equal SampleSeed
	// pick equal points.
	SampleSeed int64
	// Finish, if non-nil, runs on every assembled cell spec after the
	// axes are applied and before validation and keying — the place to
	// re-derive parameters whose conventional defaults depend on swept
	// fields (alpha from dmax, fault bounds from n, the CLI's
	// initial-skew convention). Axes only ever write the one field they
	// name; without a Finish hook, derived values baked into Base stay
	// frozen across the whole grid.
	Finish func(*harness.Spec) error
}

// Cell is one concrete run of an expanded campaign.
type Cell struct {
	// Index is the cell's position in expansion order.
	Index int
	// Values holds the applied axis values, aligned with Campaign.Axes.
	Values []string
	// Replica is the seed-replicate number in [0, Seeds).
	Replica int
	// Spec is the fully assembled run description.
	Spec harness.Spec
	// Key is the spec's content address (harness.SpecKey).
	Key string
	// Group joins the non-seed axis assignments ("f=2 dmax=0.01");
	// seed replicas and any "seed" axis fold into one group.
	Group string
}

// fieldApplier parses one axis value into a spec.
type fieldApplier func(spec *harness.Spec, value string) error

// axisFields is the sweepable-field vocabulary. Each entry parses the
// textual axis value and writes exactly one spec field, so a campaign
// description stays declarative: the spec assembly order cannot matter.
var axisFields = map[string]fieldApplier{
	"n":       intField(func(s *harness.Spec, v int) { s.Params.N = v }),
	"f":       intField(func(s *harness.Spec, v int) { s.Params.F = v }),
	"faulty":  intField(func(s *harness.Spec, v int) { s.FaultyCount = v }),
	"rho":     floatField(func(s *harness.Spec, v float64) { s.Params.Rho = clock.Rho(v) }),
	"dmin":    floatField(func(s *harness.Spec, v float64) { s.Params.DMin = v }),
	"dmax":    floatField(func(s *harness.Spec, v float64) { s.Params.DMax = v }),
	"period":  floatField(func(s *harness.Spec, v float64) { s.Params.Period = v }),
	"horizon": floatField(func(s *harness.Spec, v float64) { s.Horizon = v }),
	"initial-skew": floatField(func(s *harness.Spec, v float64) {
		s.Params.InitialSkew = v
	}),
	"bias":      floatField(func(s *harness.Spec, v float64) { s.Bias = v }),
	"slew":      floatField(func(s *harness.Spec, v float64) { s.SlewRate = v }),
	"cnv-delta": floatField(func(s *harness.Spec, v float64) { s.CNVDelta = v }),
	"algo": func(s *harness.Spec, v string) error {
		s.Algo = harness.Algorithm(v)
		return nil
	},
	"attack": func(s *harness.Spec, v string) error {
		s.Attack = harness.Attack(v)
		return nil
	},
	"topology": func(s *harness.Spec, v string) error {
		s.Topology = v
		return nil
	},
	"partitions": func(s *harness.Spec, v string) error {
		windows, err := parsePartitions(v)
		if err != nil {
			return err
		}
		s.Partitions = windows
		return nil
	},
	"seed": func(s *harness.Spec, v string) error {
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return fmt.Errorf("invalid seed %q", v)
		}
		s.Seed = seed
		return nil
	},
}

func intField(set func(*harness.Spec, int)) fieldApplier {
	return func(s *harness.Spec, v string) error {
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("invalid integer %q", v)
		}
		set(s, n)
		return nil
	}
}

func floatField(set func(*harness.Spec, float64)) fieldApplier {
	return func(s *harness.Spec, v string) error {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return fmt.Errorf("invalid number %q", v)
		}
		set(s, f)
		return nil
	}
}

// parsePartitions parses ";"-separated "at:heal:leftSize" windows via
// the shared harness parser; the empty string means no partitions, so a
// partitions axis can include an undisturbed cell.
func parsePartitions(v string) ([]harness.Partition, error) {
	if v == "" {
		return nil, nil
	}
	windows := strings.Split(v, ";")
	out := make([]harness.Partition, 0, len(windows))
	for _, w := range windows {
		p, err := harness.ParsePartition(w)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// Fields returns the sweepable axis field names, sorted.
func Fields() []string {
	out := make([]string, 0, len(axisFields))
	for name := range axisFields {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Ints renders integer axis values.
func Ints(vs ...int) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = strconv.Itoa(v)
	}
	return out
}

// Floats renders numeric axis values with full round-trip precision.
func Floats(vs ...float64) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return out
}

// Strings is the identity helper, for symmetry with Ints and Floats.
func Strings(vs ...string) []string { return append([]string(nil), vs...) }

// validate checks the axes against the field vocabulary.
func (c Campaign) validate() error {
	if len(c.Axes) == 0 {
		return fmt.Errorf("campaign %q: no axes", c.Name)
	}
	seen := make(map[string]bool, len(c.Axes))
	for _, ax := range c.Axes {
		if _, ok := axisFields[ax.Field]; !ok {
			return fmt.Errorf("campaign %q: unknown axis field %q (have %v)",
				c.Name, ax.Field, Fields())
		}
		if seen[ax.Field] {
			return fmt.Errorf("campaign %q: axis %q listed twice", c.Name, ax.Field)
		}
		seen[ax.Field] = true
		if len(ax.Values) == 0 {
			return fmt.Errorf("campaign %q: axis %q has no values", c.Name, ax.Field)
		}
		dup := make(map[string]bool, len(ax.Values))
		for _, v := range ax.Values {
			if dup[v] {
				// A repeated value is almost certainly a typo, and it
				// would double-count the point in every aggregate.
				return fmt.Errorf("campaign %q: axis %q lists value %q twice", c.Name, ax.Field, v)
			}
			dup[v] = true
		}
	}
	return nil
}

// seeds returns the effective replicate count.
func (c Campaign) seeds() int {
	if c.Seeds < 1 {
		return 1
	}
	return c.Seeds
}

// gridSize returns the number of grid points (before seed replication).
func (c Campaign) gridSize() int {
	total := 1
	for _, ax := range c.Axes {
		total *= len(ax.Values)
	}
	return total
}

// points returns the expanded grid point indices in execution order: the
// full grid, or a sorted Samples-sized random subset drawn from
// SampleSeed. Point i assigns axis a the value with index
// (i / stride(a)) % len(values(a)), last axis fastest.
func (c Campaign) points() []int {
	total := c.gridSize()
	if c.Samples <= 0 || c.Samples >= total {
		points := make([]int, total)
		for i := range points {
			points[i] = i
		}
		return points
	}
	rng := sim.NewRand(c.SampleSeed)
	points := rng.Perm(total)[:c.Samples]
	sort.Ints(points)
	return points
}

// assignments renders axis values as "field=value" parts.
func assignments(axes []Axis, values []string) []string {
	out := make([]string, len(axes))
	for a, ax := range axes {
		out[a] = ax.Field + "=" + values[a]
	}
	return out
}

// Cells expands the campaign into keyed, runnable cells in deterministic
// order. Axis values are validated by actually applying them, so a typo
// anywhere in the grid surfaces before any simulation runs.
func (c Campaign) Cells() ([]Cell, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	seeds := c.seeds()
	points := c.points()
	cells := make([]Cell, 0, len(points)*seeds)
	for _, point := range points {
		spec := c.Base
		values := make([]string, len(c.Axes))
		var nameParts, groupParts []string
		stride := 1
		for a := len(c.Axes) - 1; a >= 0; a-- {
			ax := c.Axes[a]
			v := ax.Values[(point/stride)%len(ax.Values)]
			stride *= len(ax.Values)
			values[a] = v
			if err := axisFields[ax.Field](&spec, v); err != nil {
				return nil, fmt.Errorf("campaign %q: axis %q: %w", c.Name, ax.Field, err)
			}
		}
		if c.Finish != nil {
			if err := c.Finish(&spec); err != nil {
				return nil, fmt.Errorf("campaign %q: %w", c.Name, err)
			}
		}
		// Reject out-of-model parameterizations before anything runs: a
		// bad combination deep in a grid must not simulate meaningless
		// dynamics into the store. Resilience-boundary studies sweep
		// "faulty" (the actual Byzantine count, deliberately allowed past
		// the bound), not "f" (the analytic bound Validate enforces).
		if err := spec.Params.WithDefaults().Validate(); err != nil {
			return nil, fmt.Errorf("campaign %q: cell %s: %w",
				c.Name, strings.Join(assignments(c.Axes, values), " "), err)
		}
		for a, ax := range c.Axes {
			part := ax.Field + "=" + values[a]
			nameParts = append(nameParts, part)
			if ax.Field != "seed" {
				groupParts = append(groupParts, part)
			}
		}
		group := strings.Join(groupParts, " ")
		name := strings.Join(nameParts, " ")
		if c.Name != "" {
			name = c.Name + ": " + name
		}
		for k := 0; k < seeds; k++ {
			run := spec
			run.Name = name
			run.Seed = spec.Seed + int64(k)
			run.KeepSeries = false
			key, err := harness.SpecKey(run)
			if err != nil {
				return nil, err
			}
			cells = append(cells, Cell{
				Index:   len(cells),
				Values:  values,
				Replica: k,
				Spec:    run,
				Key:     key,
				Group:   group,
			})
		}
	}
	return cells, nil
}
