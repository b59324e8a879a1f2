// Package autotune implements the paper's evaluation harness: search over a
// library's configuration space, executed either fully (the reference) or
// selectively under one of Critter's policies at a confidence tolerance
// epsilon, with the measurement protocol of Section VI-A — a full execution
// directly prior to each approximated one, prediction error relative to
// that full execution, and tuning cost as the total (virtual) time of the
// selective executions. Every run begins a noise epoch keyed by its study,
// configuration and role, so a configuration's reference depends only on
// (study, configuration, seed): it is computed once per Tuner run, shared
// by all its sweeps (reference.go), and identical by construction to a
// full execution run directly before the approximated one.
//
// The central type is the Tuner (tuner.go), which composes a Study (a
// configuration Space plus an SPMD runner), a search Strategy (Exhaustive —
// the paper's protocol — RandomSample, or SuccessiveHalving), and a
// context-aware concurrent executor. The evaluation grid is embarrassingly
// parallel: each (policy, eps) sweep runs in its own simulated world seeded
// identically, so the Tuner dispatches sweeps to a bounded worker pool (see
// executor.go) and produces results that are bit-identical at any worker
// count. Experiment and ExperimentSuite are compatibility wrappers over the
// Tuner, preserved from the exhaustive-only API.
package autotune

import (
	"context"

	"critter/internal/critter"
	"critter/internal/sim"
)

// Study is one library's tuning problem: a configuration space and an SPMD
// runner executing one configuration under a profiler.
type Study struct {
	// Name identifies the study (e.g. "capital-cholesky").
	Name string
	// Space declares the configuration space as named dimensions, letting
	// strategies decode indices and move along axes. When empty, the
	// legacy NumConfigs/Describe pair below defines the space.
	Space Space
	// NumConfigs is the size of the search space. Legacy: superseded by
	// Space; consulted only when Space is empty.
	NumConfigs int
	// WorldSize is the rank count the study's grids require.
	WorldSize int
	// ResetStats requests discarding kernel models between configurations,
	// as the paper does for SLATE's and CANDMC's algorithms (whose kernels
	// change with the configuration's tile/block sizes); CAPITAL keeps its
	// models, which eager propagation exploits across configurations.
	ResetStats bool
	// Run executes configuration v on the calling rank.
	Run func(p *critter.Profiler, cc *critter.Comm, v int)
	// Describe labels configuration v for reports. Legacy: when nil, the
	// Space's "name=value" join is used instead.
	Describe func(v int) string
	// Policies lists the selective-execution policies the paper evaluates
	// for this study (eager only for the bulk-synchronous CAPITAL).
	Policies []critter.Policy
}

// space resolves the study's configuration space, wrapping the legacy
// NumConfigs count when no dimensions are declared.
func (s Study) space() Space {
	if s.Space.Size() > 0 {
		return s.Space
	}
	return legacySpace(s.NumConfigs)
}

// Size returns the number of configurations in the study's space.
func (s Study) Size() int {
	if n := s.Space.Size(); n > 0 {
		return n
	}
	return s.NumConfigs
}

// Label renders configuration v for reports: the study's own Describe
// formatter when set, else the space's "name=value" join.
func (s Study) Label(v int) string {
	if s.Describe != nil {
		return s.Describe(v)
	}
	return s.space().Describe(v)
}

// ConfigResult captures one configuration's reference and selective runs.
type ConfigResult struct {
	Config    int
	Eps       float64 // tolerance this evaluation ran at (rung strategies loosen early rounds)
	Full      critter.Report
	Selective critter.Report
	ExecErr   float64 // |predicted - full| / full execution time
	CompErr   float64 // same for critical-path computation time
}

// SweepResult aggregates one (policy, epsilon) pass over the configurations
// the sweep's strategy evaluated (the whole space under Exhaustive).
type SweepResult struct {
	Policy  critter.Policy `json:"Policy"`
	Eps     float64        `json:"Eps"`
	Configs []ConfigResult `json:"Configs"`

	TuneWall       float64 `json:"TuneWall"`       // total selective-execution virtual time (the tuning cost)
	FullWall       float64 `json:"FullWall"`       // total full-execution virtual time over the evaluated configs (the red line)
	KernelTime     float64 `json:"KernelTime"`     // sum over configs of max-rank executed-kernel time
	CompKernelTime float64 `json:"CompKernelTime"` // same, computation kernels only
	// MeanLogExecErr/MeanLogCompErr are the log2 geometric-mean prediction
	// errors over every evaluation performed; under a rung strategy that
	// includes the loosened-tolerance rungs, not just target-eps runs.
	MeanLogExecErr float64 `json:"MeanLogExecErr"`
	MeanLogCompErr float64 `json:"MeanLogCompErr"`
	Selected       int     `json:"Selected"` // argmin of predicted times (Critter's choice); rung strategies compare each config's last evaluation
	Optimal        int     `json:"Optimal"`  // argmin of full execution times among evaluated configs
	Executed       int64   `json:"Executed"`
	Skipped        int64   `json:"Skipped"`

	// KernelsMemoized counts the skips whose predictability decision was
	// replayed from the worker's cross-config memoization layer
	// (critter.KernelMemo) instead of re-derived. Excluded from JSON:
	// memoization is observational and its hit counts depend on sweep
	// scheduling, so envelopes stay byte-identical with or without it.
	// Surfaced operationally as the kernels_memoized_total metric.
	KernelsMemoized int64 `json:"-"`
	// ReferencesRun counts the configurations whose reference this sweep
	// computed itself rather than read from the tuner's shared reference
	// table; summed over a Run it equals the number of distinct
	// configurations evaluated. Excluded from JSON like KernelsMemoized:
	// which sweep computes a reference depends on scheduling, the report
	// does not.
	ReferencesRun int64 `json:"-"`

	// Profile is what the sweep's selective executions learned, merged
	// across every configuration and rank: kernel models, fitted family
	// extrapolators, and critical-path frequencies. Feed it back through
	// Tuner.Prior (or WarmStart) to warm-start a later run. Excluded from
	// JSON — the Envelope carries per-sweep summaries instead; persist the
	// full artifact with Profile.Encode (critter-tune -profile-out).
	Profile *critter.Profile `json:"-"`
}

// Experiment drives exhaustive sweeps of one study over policies and
// tolerances. It is a compatibility wrapper over Tuner with the Exhaustive
// strategy and no cancellation; new code should use Tuner directly.
type Experiment struct {
	Study    Study
	EpsList  []float64
	Machine  sim.Machine
	Seed     uint64
	Policies []critter.Policy // overrides Study.Policies when non-nil

	// Workers bounds how many sweeps are simulated concurrently. Zero (or
	// negative) means runtime.GOMAXPROCS(0); 1 recovers the sequential
	// path. Every worker count yields bit-identical results, because each
	// sweep runs in its own world seeded with Seed.
	Workers int
	// Progress, when non-nil, is invoked after each sweep completes.
	// Invocations are serialized; the callback must not call back into
	// the experiment.
	Progress func(Progress)
}

// Result holds every sweep of a tuning run, indexed [policy][eps].
type Result struct {
	Study    string
	Strategy string
	Policies []critter.Policy
	EpsList  []float64
	Sweeps   [][]SweepResult
}

// Tuner converts the experiment to the equivalent exhaustive Tuner.
func (e Experiment) Tuner() Tuner {
	return Tuner{
		Study:    e.Study,
		EpsList:  e.EpsList,
		Machine:  e.Machine,
		Seed:     e.Seed,
		Policies: e.Policies,
		Strategy: Exhaustive{},
		Workers:  e.Workers,
		Progress: e.Progress,
	}
}

// Run executes every (policy, eps) sweep of the experiment through the
// Tuner. The result grid is always returned — cells of failed sweeps are
// zeroed — alongside the joined per-sweep errors (nil when every sweep
// succeeded), matching ExperimentSuite's partial-result semantics.
func (e Experiment) Run() (*Result, error) {
	return e.Tuner().Run(context.Background())
}

// EpsList is the tolerance sweep eps = 2^0 .. 2^-(n-1).
func EpsList(n int) []float64 {
	out := make([]float64, n)
	e := 1.0
	for i := range out {
		out[i] = e
		e /= 2
	}
	return out
}

// DefaultEpsList is the paper's tolerance sweep: eps = 2^0 .. 2^-10.
func DefaultEpsList() []float64 { return EpsList(11) }
