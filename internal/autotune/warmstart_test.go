package autotune

import (
	"context"
	"reflect"
	"testing"

	"critter/internal/critter"
)

// TestTunerDefaultEstimatorBitIdentical is the redesign's acceptance
// contract: with the default estimator and no prior, Tuner.Run is
// bit-identical to an explicitly constructed CI-mean estimator (the
// refactored pre-redesign path).
func TestTunerDefaultEstimatorBitIdentical(t *testing.T) {
	base := Tuner{
		Study:    CandmcQR(QuickScale()),
		EpsList:  []float64{0.5, 0.125},
		Machine:  quickMachine(),
		Seed:     7,
		Policies: []critter.Policy{critter.Conditional, critter.Online},
		Workers:  2,
	}
	def, err := base.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	expl := base
	expl.NewEstimator = func() critter.Estimator { return critter.NewCIMeanEstimator(false) }
	got, err := expl.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(observable(def), observable(got)) {
		t.Error("explicit CI-mean estimator differs from the default path")
	}
}

// TestSweepProfilesExported checks that every successful sweep carries its
// learned profile: non-empty kernel models and path frequencies, pooled
// across ranks and configurations.
func TestSweepProfilesExported(t *testing.T) {
	res, err := Tuner{
		Study:    SlateCholesky(QuickScale()),
		EpsList:  []float64{0.25},
		Machine:  quickMachine(),
		Seed:     3,
		Policies: []critter.Policy{critter.Conditional},
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	prof := res.Sweeps[0][0].Profile
	if prof == nil || len(prof.Kernels) == 0 || len(prof.PathFreqs) == 0 {
		t.Fatalf("sweep profile missing or empty: %+v", prof)
	}
	if prof.SchemaVersion != critter.ProfileSchemaVersion || prof.Estimator != "ci-mean" {
		t.Errorf("profile not self-describing: version %d estimator %q", prof.SchemaVersion, prof.Estimator)
	}
	// SlateCholesky resets statistics between configurations; the archive
	// must still span the whole space, so the profile has to know kernels
	// from configurations with different tile sizes.
	if sum := Summarize(critter.Conditional.String(), 0.25, prof); sum.Samples == 0 || sum.PathKeys == 0 {
		t.Errorf("summary empty: %+v", sum)
	}
	if mp := MergedProfile(res); mp == nil || len(mp.Kernels) < len(prof.Kernels) {
		t.Error("MergedProfile lost kernels")
	}
	// The profile survives an encode/decode cycle (the -profile-out path).
	data, err := prof.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := critter.DecodeProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, prof) {
		t.Error("sweep profile does not survive serialization")
	}
}

// TestEagerProfileNotInflated is the regression test for eager-policy
// profile pooling: eager propagation installs one pooled sample set on
// every rank, and the cross-rank export must deduplicate those shared
// copies instead of summing them once per rank. Before the fix an 8-rank
// eager sweep reported ~6x more samples than kernels it executed.
func TestEagerProfileNotInflated(t *testing.T) {
	res, err := Tuner{
		Study:    CapitalCholesky(QuickScale()),
		EpsList:  []float64{0.25},
		Machine:  quickMachine(),
		Seed:     5,
		Policies: []critter.Policy{critter.Eager},
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sw := res.Sweeps[0][0]
	if sw.Profile == nil || len(sw.Profile.Kernels) == 0 {
		t.Fatal("eager sweep exported no profile")
	}
	pooled := 0
	for _, km := range sw.Profile.Kernels {
		if km.Pooled {
			pooled++
		}
	}
	if pooled == 0 {
		t.Error("no kernel model marked pooled despite eager propagation")
	}
	// The export must not re-sum the shared pooled copies once per rank
	// (which multiplied sample counts by nearly the world size, 8 here).
	// A modest excess over the executed count remains legitimate: eager's
	// live pooling is itself approximate — an imported model replaces a
	// rank's accumulator wholesale, so successive partial pools can
	// re-merge a few samples — but that is bounded far below the
	// per-rank blowup.
	if got := sw.Profile.Samples(); got > 2*sw.Executed {
		t.Errorf("profile holds %d samples for %d executed kernels (pooled copies re-summed per rank?)",
			got, sw.Executed)
	}
}

// TestWarmStartReducesExecutions is the transfer acceptance criterion: a
// profile exported from one run and loaded as a prior measurably reduces
// the executed-kernel count on a second run of the same study, without
// degrading the search result.
func TestWarmStartReducesExecutions(t *testing.T) {
	base := Tuner{
		Study:       CandmcQR(QuickScale()),
		EpsList:     []float64{0.125},
		Machine:     quickMachine(),
		Seed:        11,
		Policies:    []critter.Policy{critter.Online},
		Extrapolate: true,
	}
	cold, err := base.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	coldSweep := cold.Sweeps[0][0]
	if coldSweep.Profile == nil {
		t.Fatal("cold run exported no profile")
	}

	warmTuner := base
	warmTuner.Prior = coldSweep.Profile
	warm, err := warmTuner.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	warmSweep := warm.Sweeps[0][0]
	if warmSweep.Executed >= coldSweep.Executed {
		t.Errorf("warm run executed %d kernels, cold executed %d — the prior must reduce executions",
			warmSweep.Executed, coldSweep.Executed)
	}
	if len(warmSweep.Configs) != len(coldSweep.Configs) {
		t.Errorf("warm run evaluated %d configs, cold %d", len(warmSweep.Configs), len(coldSweep.Configs))
	}
	// The warm run still tunes: its selection must come from the evaluated
	// space. (Its reference executions are not bit-compared against the
	// cold run's — executing fewer selective kernels consumes fewer noise
	// draws, shifting later configurations' noise streams.)
	evaluated := map[int]bool{}
	for _, cr := range warmSweep.Configs {
		evaluated[cr.Config] = true
	}
	if !evaluated[warmSweep.Selected] {
		t.Errorf("warm run selected config %d outside the evaluated set", warmSweep.Selected)
	}
}

// TestWarmStartStrategyDecorator checks the Strategy carrier: decorating
// any strategy threads the prior into every sweep exactly like Tuner.Prior,
// planning is delegated untouched, and the decorated name marks the run.
func TestWarmStartStrategyDecorator(t *testing.T) {
	base := Tuner{
		Study:    CandmcQR(QuickScale()),
		EpsList:  []float64{0.125},
		Machine:  quickMachine(),
		Seed:     11,
		Policies: []critter.Policy{critter.Online},
	}
	cold, err := base.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	prior := cold.Sweeps[0][0].Profile

	viaPrior := base
	viaPrior.Prior = prior
	a, err := viaPrior.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	viaStrategy := base
	viaStrategy.Strategy = WarmStart(Exhaustive{}, prior)
	b, err := viaStrategy.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if b.Strategy != "warm:exhaustive" {
		t.Errorf("decorated strategy named %q, want warm:exhaustive", b.Strategy)
	}
	if !reflect.DeepEqual(observable(a).Sweeps, observable(b).Sweeps) {
		t.Error("WarmStart strategy and Tuner.Prior produced different sweeps")
	}
	// A nil prior decorates to the inner strategy unchanged; a nil inner
	// defaults to Exhaustive.
	if got := WarmStart(RandomSample{N: 3, Seed: 1}, nil); got.Name() != "random:3" {
		t.Errorf("WarmStart with nil prior renamed the strategy: %q", got.Name())
	}
	if got := WarmStart(nil, prior); got.Name() != "warm:exhaustive" {
		t.Errorf("WarmStart(nil, prior) = %q, want warm:exhaustive", got.Name())
	}
}

// TestWarmStartForwardsProfileAware checks the decorator against the new
// optional interface: WarmStart delegates Plan to the inner strategy
// untouched, so an inner ProfileAware plan keeps receiving the live merged
// profile — a warm start must not silently disconnect a model-guided
// strategy from its feedback loop.
func TestWarmStartForwardsProfileAware(t *testing.T) {
	base := Tuner{
		Study:    rampStudy(8),
		EpsList:  []float64{0.25},
		Machine:  quickMachine(),
		Seed:     13,
		Policies: []critter.Policy{critter.Online},
	}
	cold, err := base.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	prior := cold.Sweeps[0][0].Profile
	if prior == nil {
		t.Fatal("cold run exported no profile")
	}

	probe, calls := newProfileProbe(Surrogate{N: 5, Seed: 13})
	warm := base
	warm.Strategy = WarmStart(probe, prior)
	res, err := warm.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "warm:probe:surrogate:5" {
		t.Errorf("strategy recorded as %q", res.Strategy)
	}
	if len(*calls) == 0 {
		t.Fatal("warm-started ProfileAware plan never received a profile")
	}
	for _, prof := range *calls {
		if prof == nil {
			t.Fatal("ObserveProfile fed a nil profile through WarmStart")
		}
	}
}
