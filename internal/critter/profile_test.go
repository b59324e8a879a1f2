package critter

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"critter/internal/mpi"
	"critter/internal/stats"
)

// goldenProfile is a fixed profile exercising every field of the schema.
func goldenProfile() *Profile {
	return &Profile{
		SchemaVersion: ProfileSchemaVersion,
		Estimator:     "ci-mean",
		Kernels: map[Key]KernelModel{
			CompKey("gemm", 8, 8, 8, 0):    {Count: 12, Mean: 2.5e-5, M2: 1.5e-11, Pooled: true},
			CompKey("potrf", 16, 0, 0, 0):  {Count: 3, Mean: 4e-6, M2: 2e-13},
			CommKey("bcast", 64, 8, 1):     {Count: 7, Mean: 1.25e-6, M2: 9e-14},
			CommKey("allreduce", 32, 4, 2): {Count: 2, Mean: 8e-7, M2: 1e-15},
		},
		Families: map[string]Family{
			"gemm": {Points: []FamilyPoint{
				{Flops: 1024, Mean: 3.1e-7},
				{Flops: 8192, Mean: 2.2e-6},
				{Flops: 65536, Mean: 1.7e-5},
			}},
		},
		PathFreqs: map[Key]int64{
			CompKey("gemm", 8, 8, 8, 0): 40,
			CommKey("bcast", 64, 8, 1):  10,
		},
	}
}

// TestProfileGoldenFile pins the on-disk profile format: the canonical
// profile must encode byte-for-byte to testdata/profile.golden.json, and
// the golden file must decode back to the same value. A deliberate format
// change means regenerating the golden file (delete it and run with
// -run TestProfileGoldenFile -update-golden is not provided: re-create it
// from the failure diff) and bumping ProfileSchemaVersion if the layout is
// incompatible.
func TestProfileGoldenFile(t *testing.T) {
	goldenPath := filepath.Join("testdata", "profile.golden.json")
	got, err := goldenProfile().Encode()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("encoded profile differs from %s:\n--- got ---\n%s\n--- want ---\n%s", goldenPath, got, want)
	}
	back, err := DecodeProfile(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, goldenProfile()) {
		t.Errorf("golden file decoded to\n%+v\nwant\n%+v", back, goldenProfile())
	}
}

func TestProfileEncodeDecodeRoundTrip(t *testing.T) {
	p := goldenProfile()
	data, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, back) {
		t.Fatalf("round trip changed the profile:\n%+v\n%+v", back, p)
	}
}

func TestDecodeProfileRejectsBadInput(t *testing.T) {
	for name, data := range map[string]string{
		"not json":        `{`,
		"future schema":   `{"schemaVersion": 99}`,
		"zero schema":     `{"schemaVersion": 0}`,
		"zero count":      `{"schemaVersion": 1, "kernels": {"comp:gemm(1,2,3;0)": {"count": 0, "mean": 1}}}`,
		"negative mean":   `{"schemaVersion": 1, "kernels": {"comp:gemm(1,2,3;0)": {"count": 2, "mean": -1, "m2": 0}}}`,
		"bad key":         `{"schemaVersion": 1, "kernels": {"bogus": {"count": 2, "mean": 1, "m2": 0}}}`,
		"bad family":      `{"schemaVersion": 1, "families": {"gemm": {"points": [{"flops": 0, "mean": 1}]}}}`,
		"zero path freq":  `{"schemaVersion": 1, "pathFreqs": {"comp:gemm(1,2,3;0)": 0}}`,
		"non-finite mean": `{"schemaVersion": 1, "families": {"gemm": {"points": [{"flops": 1, "mean": 1e999}]}}}`,
		"unsorted points": `{"schemaVersion": 1, "families": {"gemm": {"points": [{"flops": 5, "mean": 1}, {"flops": 1, "mean": 1}]}}}`,
		"duplicate flops": `{"schemaVersion": 1, "families": {"gemm": {"points": [{"flops": 5, "mean": 1}, {"flops": 5, "mean": 2}]}}}`,
	} {
		if _, err := DecodeProfile([]byte(data)); err == nil {
			t.Errorf("%s: DecodeProfile accepted %s", name, data)
		}
	}
}

func TestKeyTextRoundTrip(t *testing.T) {
	keys := []Key{
		CompKey("gemm", 8, 16, 32, 3),
		CompKey("potrf", -1, 0, 0, 0),
		CommKey("bcast", 64, 8, 1),
		CommKey("send", 128, 2, -7),
		{Kind: KindComp, Name: "", P1: 1, P2: 2, P3: 3, P4: 4},
	}
	for _, k := range keys {
		text, err := k.MarshalText()
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		var back Key
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		if back != k {
			t.Errorf("round trip %v -> %s -> %v", k, text, back)
		}
	}
	if _, err := (Key{Name: "bad(name"}).MarshalText(); err == nil {
		t.Error("parenthesized name encoded without error")
	}
	for _, bad := range []string{"", "comp", "x:y(1,2,3;4)", "comp:g(1,2;3)", "comp:g(1,2,3)", "comp:g(a,2,3;4)", "comp:g(1,2,3;4"} {
		var k Key
		if err := k.UnmarshalText([]byte(bad)); err == nil {
			t.Errorf("UnmarshalText(%q) accepted", bad)
		}
	}
}

func FuzzKeyText(f *testing.F) {
	f.Add("comp:gemm(8,16,32;3)")
	f.Add("comm:bcast(64,8,1;0)")
	f.Add("comp:(1,2,3;4)")
	f.Add("bogus")
	f.Add("comp:g(1,2,3;4)trailer")
	f.Fuzz(func(t *testing.T, s string) {
		var k Key
		if err := k.UnmarshalText([]byte(s)); err != nil {
			return
		}
		// Anything accepted must re-encode losslessly.
		text, err := k.MarshalText()
		if err != nil {
			t.Fatalf("accepted %q but cannot re-encode %v: %v", s, k, err)
		}
		var back Key
		if err := back.UnmarshalText(text); err != nil || back != k {
			t.Fatalf("accepted %q -> %v -> %s, not a fixed point: %v", s, k, text, err)
		}
	})
}

func TestProfileMerge(t *testing.T) {
	key := CompKey("gemm", 8, 8, 8, 0)
	var w1, w2, all stats.Welford
	for _, x := range []float64{1, 2, 3} {
		w1.Add(x)
		all.Add(x)
	}
	for _, x := range []float64{4, 5} {
		w2.Add(x)
		all.Add(x)
	}
	a := &Profile{
		SchemaVersion: 1,
		Kernels:       map[Key]KernelModel{key: {Count: w1.Count(), Mean: w1.Mean(), M2: w1.M2()}},
		Families:      map[string]Family{"gemm": {Points: []FamilyPoint{{Flops: 1, Mean: 1}, {Flops: 4, Mean: 4}}}},
		PathFreqs:     map[Key]int64{key: 5},
	}
	b := &Profile{
		SchemaVersion: 1,
		Kernels:       map[Key]KernelModel{key: {Count: w2.Count(), Mean: w2.Mean(), M2: w2.M2()}},
		Families:      map[string]Family{"gemm": {Points: []FamilyPoint{{Flops: 2, Mean: 2}, {Flops: 4, Mean: 8}}}},
		PathFreqs:     map[Key]int64{key: 3},
	}
	m := MergeProfiles(a, b)
	km := m.Kernels[key]
	if km.Count != all.Count() || math.Abs(km.Mean-all.Mean()) > 1e-12 {
		t.Errorf("merged kernel model %+v, want count %d mean %g", km, all.Count(), all.Mean())
	}
	wantPts := []FamilyPoint{{Flops: 1, Mean: 1}, {Flops: 2, Mean: 2}, {Flops: 4, Mean: 8}}
	if got := m.Families["gemm"].Points; !reflect.DeepEqual(got, wantPts) {
		t.Errorf("merged family points %v, want %v (b wins on equal flops)", got, wantPts)
	}
	if m.PathFreqs[key] != 5 {
		t.Errorf("merged path freq %d, want max 5", m.PathFreqs[key])
	}
	// Inputs untouched.
	if a.Kernels[key].Count != 3 || b.Kernels[key].Count != 2 {
		t.Error("MergeProfiles mutated its inputs")
	}
	// nil handling.
	if MergeProfiles(nil, nil) != nil {
		t.Error("MergeProfiles(nil, nil) != nil")
	}
	if got := MergeProfiles(nil, b); !reflect.DeepEqual(got, b) || got == b {
		t.Error("MergeProfiles(nil, b) should deep-copy b")
	}
}

// TestEstimatorDefaultMatchesExplicit is the redesign's core contract at
// the profiler level: a nil Options.Estimator and an explicit
// NewCIMeanEstimator produce bit-identical reports. Each rank constructs
// its own estimator instance (they are not shareable across ranks).
func TestEstimatorDefaultMatchesExplicit(t *testing.T) {
	run := func(explicit bool) Report {
		w := mpi.NewWorld(4, testMachine(0.05), 7)
		var rep Report
		var mu sync.Mutex
		if err := w.Run(func(c *mpi.Comm) {
			opts := Options{Policy: Online, Eps: 0.125}
			if explicit {
				opts.Estimator = NewCIMeanEstimator(false)
			}
			p, cc := New(c, opts)
			buf := make([]float64, 32)
			for i := 0; i < 40; i++ {
				p.Kernel("gemm", 8, 8, 8, 0, 1e4, func() {})
				p.Kernel("gemm", 16, 16, 16, 0, 8e4, func() {})
				cc.Bcast(0, buf)
			}
			r := p.Report()
			if c.Rank() == 0 {
				mu.Lock()
				rep = r
				mu.Unlock()
			}
		}); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	def := run(false)
	expl := run(true)
	if def != expl {
		t.Errorf("default estimator differs from explicit CI-mean:\n%+v\n%+v", def, expl)
	}
}

// TestProfilerExportAndPrior checks the warm-start loop at the profiler
// level: an exported profile seeded as a prior makes kernels skip after a
// single validation execution, and exports exclude prior samples so
// chaining runs does not double-count.
func TestProfilerExportAndPrior(t *testing.T) {
	workload := func(p *Profiler, cc *Comm) {
		for i := 0; i < 30; i++ {
			p.Kernel("gemm", 8, 8, 8, 0, 1e4, func() {})
		}
	}
	var exported *Profile
	cold := runProfiled(t, 1, 0.05, Options{Policy: Conditional, Eps: 0.05}, func(p *Profiler, cc *Comm) {
		workload(p, cc)
		exported = p.ExportProfile()
	})
	if exported == nil || len(exported.Kernels) == 0 {
		t.Fatalf("export empty: %+v", exported)
	}
	key := CompKey("gemm", 8, 8, 8, 0)
	if exported.Kernels[key].Count != cold.Executed {
		t.Errorf("exported %d samples, executed %d", exported.Kernels[key].Count, cold.Executed)
	}
	if exported.PathFreqs[key] != 30 {
		t.Errorf("exported path freq %d, want 30", exported.PathFreqs[key])
	}
	var warmExported *Profile
	warm := runProfiled(t, 1, 0.05, Options{Policy: Conditional, Eps: 0.05, Prior: exported},
		func(p *Profiler, cc *Comm) {
			if p.Samples(key) != exported.Kernels[key].Count {
				t.Errorf("prior not visible: %d samples before first run", p.Samples(key))
			}
			workload(p, cc)
			warmExported = p.ExportProfile()
		})
	if warm.Executed >= cold.Executed {
		t.Errorf("warm run executed %d kernels, cold %d — prior had no effect", warm.Executed, cold.Executed)
	}
	if warm.Executed != 1 {
		t.Errorf("warm run executed %d, want exactly the one validation execution", warm.Executed)
	}
	// The warm export holds only this run's samples.
	if got := warmExported.Kernels[key].Count; got != warm.Executed {
		t.Errorf("warm export has %d samples, want %d (prior must be excluded)", got, warm.Executed)
	}
}

// TestProfilerPriorSurvivesReset checks that StartConfigKeyed's statistics reset
// returns the estimator to the prior, not to cold: every configuration of a
// warm-started sweep benefits.
func TestProfilerPriorSurvivesReset(t *testing.T) {
	key := CompKey("gemm", 8, 8, 8, 0)
	var exported *Profile
	runProfiled(t, 1, 0.05, Options{Policy: Conditional, Eps: 0.05}, func(p *Profiler, cc *Comm) {
		for i := 0; i < 30; i++ {
			p.Kernel("gemm", 8, 8, 8, 0, 1e4, func() {})
		}
		exported = p.ExportProfile()
	})
	runProfiled(t, 1, 0.05, Options{Policy: Conditional, Eps: 0.05, Prior: exported},
		func(p *Profiler, cc *Comm) {
			p.StartConfigKeyed(true, RunKey{Config: ConfigKey("prior", 1)})
			if p.Samples(key) != exported.Kernels[key].Count {
				t.Errorf("after reset: %d samples, want the prior's %d", p.Samples(key), exported.Kernels[key].Count)
			}
			execs := 0
			for i := 0; i < 10; i++ {
				p.Kernel("gemm", 8, 8, 8, 0, 1e4, func() { execs++ })
			}
			if execs != 1 {
				t.Errorf("config after reset executed %d times, want 1 (warm)", execs)
			}
		})
}

// TestProfileArchiveSpansConfigs checks that ExportProfile covers every
// configuration of a run, not just the live state after the last reset.
func TestProfileArchiveSpansConfigs(t *testing.T) {
	k1 := CompKey("gemm", 8, 8, 8, 0)
	k2 := CompKey("gemm", 16, 16, 16, 0)
	runProfiled(t, 1, 0.05, Options{Policy: Conditional, Eps: 0.05}, func(p *Profiler, cc *Comm) {
		for i := 0; i < 5; i++ {
			p.Kernel("gemm", 8, 8, 8, 0, 1e4, func() {})
		}
		p.StartConfigKeyed(true, RunKey{Config: ConfigKey("archive", 1)}) // wipes live stats, archives them
		for i := 0; i < 5; i++ {
			p.Kernel("gemm", 16, 16, 16, 0, 8e4, func() {})
		}
		exp := p.ExportProfile()
		if exp.Kernels[k1].Count == 0 || exp.Kernels[k2].Count == 0 {
			t.Errorf("export lost a configuration: %+v", exp.Kernels)
		}
		if exp.PathFreqs[k1] != 5 || exp.PathFreqs[k2] != 5 {
			t.Errorf("path freqs %v, want 5 for both configs' kernels", exp.PathFreqs)
		}
	})
}

// TestGlobalProfilePoolsRanks checks the collective export: every rank's
// samples pool into one profile, identical on all ranks.
func TestGlobalProfilePoolsRanks(t *testing.T) {
	const ranks = 4
	key := CompKey("gemm", 8, 8, 8, 0)
	profiles := make([]*Profile, ranks)
	runProfiled(t, ranks, 0.05, Options{Policy: Conditional, Eps: 0}, func(p *Profiler, cc *Comm) {
		for i := 0; i < 10; i++ {
			p.Kernel("gemm", 8, 8, 8, 0, 1e4, func() {})
		}
		profiles[cc.Rank()] = p.GlobalProfile()
	})
	if profiles[0].Kernels[key].Count != 10*ranks {
		t.Errorf("global profile has %d samples, want %d", profiles[0].Kernels[key].Count, 10*ranks)
	}
	for r := 1; r < ranks; r++ {
		if !reflect.DeepEqual(profiles[0], profiles[r]) {
			t.Errorf("rank %d's global profile differs from rank 0's", r)
		}
	}
}

// TestWelfordCarrierExcludesPrior pins the eager-pooling contract: the
// nomination export carries only rank-local samples (every rank shares the
// same prior, which must enter a pooled model exactly once, through the
// layered query path), and an imported pooled model neither destroys the
// prior layer nor leaks into ExportProfile unmarked.
func TestWelfordCarrierExcludesPrior(t *testing.T) {
	key := CompKey("gemm", 8, 8, 8, 0)
	prior := &Profile{
		SchemaVersion: ProfileSchemaVersion,
		Kernels:       map[Key]KernelModel{key: {Count: 10, Mean: 2e-6, M2: 1e-13}},
	}
	est := NewCIMeanEstimator(false)
	est.(ProfileCarrier).LoadPrior(prior)
	wc := est.(WelfordCarrier)
	if _, ok := wc.ExportWelford(key); ok {
		t.Error("nomination export leaked prior samples before any local observation")
	}
	est.Observe(key, 1e4, 2.1e-6, 0.1)
	w, ok := wc.ExportWelford(key)
	if !ok || w.Count() != 1 {
		t.Errorf("nomination export has %d samples, want the 1 local one", w.Count())
	}
	if est.Samples(key) != 11 {
		t.Errorf("layered query sees %d samples, want prior 10 + 1 local", est.Samples(key))
	}
	// Import a pooled model (as if merged across 4 ranks): the prior layer
	// must survive underneath and the export must flag the pooled entry.
	var pooledW stats.Welford
	for _, x := range []float64{2e-6, 2.1e-6, 2.2e-6, 1.9e-6} {
		pooledW.Add(x)
	}
	wc.ImportWelford(key, pooledW)
	if est.Samples(key) != 10+4 {
		t.Errorf("after import: %d samples, want prior 10 + pooled 4", est.Samples(key))
	}
	exp := est.(ProfileCarrier).ExportProfile()
	km := exp.Kernels[key]
	if km.Count != 4 || !km.Pooled {
		t.Errorf("export after import: count %d pooled %v, want 4 samples marked pooled", km.Count, km.Pooled)
	}
}

// TestWelfordMoments checks the stats accessors backing serialization.
func TestWelfordMoments(t *testing.T) {
	var w stats.Welford
	for _, x := range []float64{1, 2, 3, 4} {
		w.Add(x)
	}
	back := stats.WelfordFromMoments(w.Count(), w.Mean(), w.M2())
	if back.Count() != w.Count() || back.Mean() != w.Mean() || back.Variance() != w.Variance() {
		t.Errorf("moments round trip: %+v vs %+v", back, w)
	}
	if z := stats.WelfordFromMoments(-1, 5, 5); z.Count() != 0 {
		t.Errorf("negative count not clamped: %+v", z)
	}
	if z := stats.WelfordFromMoments(3, 5, -1); z.Variance() < 0 {
		t.Errorf("negative m2 not clamped: %+v", z)
	}
}
