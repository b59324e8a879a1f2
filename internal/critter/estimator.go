package critter

import (
	"sort"

	"critter/internal/stats"
)

// The pluggable prediction layer. The paper's statistical machinery — the
// per-signature confidence-interval models that drive shouldExecute and the
// family extrapolator of Section VIII — lives behind the Estimator
// interface, selected via Options.Estimator. The built-in CI-mean estimator
// (NewCIMeanEstimator) reproduces the paper bit-for-bit and additionally
// supports persistent, transferable profiles: its learned state exports to a
// Profile (profile.go) and a prior Profile can warm-start a new run.

// Estimator models kernel durations and decides predictability. The
// Profiler consults one Estimator per rank: Observe feeds it measured
// durations, Estimate supplies the modeled duration charged for skipped
// kernels, Predictable gates the skip decision, and Extrapolate may offer a
// cross-signature estimate for an under-sampled kernel (the line-fitting
// extension). Implementations need not be safe for concurrent use; each
// rank owns its estimator exclusively.
//
// Estimators may additionally implement WelfordCarrier (required for the
// eager policy's cross-rank aggregation) and ProfileCarrier (profile export
// and warm-starting).
type Estimator interface {
	// Name identifies the estimator in options and serialized profiles.
	Name() string
	// Observe incorporates one measured duration dt for key. flops is the
	// kernel's operation count (0 for communication kernels) and eps the
	// active confidence tolerance, which extrapolating estimators use to
	// gate family-model feeding.
	Observe(key Key, flops, dt, eps float64)
	// Estimate returns the modeled duration charged for a skipped kernel
	// (0 when the key has never been observed).
	Estimate(key Key) float64
	// Samples returns the number of observations backing key's model.
	Samples(key Key) int64
	// Predictable reports whether key's model meets tolerance eps given
	// the execution-count credit freq along the current sub-critical path.
	Predictable(key Key, eps float64, freq int64) bool
	// Extrapolate returns a cross-signature estimate for a computation
	// kernel whose own model is not yet trustworthy, or ok == false when
	// the estimator does not extrapolate or the fit is untrustworthy.
	Extrapolate(key Key, flops, eps float64) (float64, bool)
	// Reset discards everything learned since construction (between tuning
	// configurations). Estimators seeded with a prior restore the prior,
	// not the empty state.
	Reset()
}

// WelfordCarrier is the optional estimator interface behind the eager
// policy's cross-rank statistics aggregation: kernel models are exported,
// pooled across a sub-communicator, and re-imported on every member.
// Estimators that do not implement it silently opt out of eager
// propagation (kernels are then never globally switched off).
type WelfordCarrier interface {
	// ExportWelford returns key's rank-local accumulator (this run's own
	// observations, excluding any prior layer — every rank of the pool
	// shares the same prior, which must enter the pooled model exactly
	// once) and whether the key has one.
	ExportWelford(key Key) (stats.Welford, bool)
	// ImportWelford installs a pooled accumulator as key's live model.
	// The model is marked as pooled: it now holds other ranks' samples
	// too, which profile exports flag so same-run rank merges deduplicate
	// the shared copies instead of re-pooling them.
	ImportWelford(key Key, w stats.Welford)
}

// ProfileCarrier is the optional estimator interface for persistent
// profiles: what the estimator learned exports to a Profile, and a prior
// Profile warm-starts it. LoadPrior layers the prior under the live models
// — it survives Reset — while ExportProfile returns only what the current
// run learned, so chaining runs via MergeProfiles never double-counts
// samples.
type ProfileCarrier interface {
	ExportProfile() *Profile
	LoadPrior(prior *Profile)
}

// profileArchiver is the internal fast path behind StartConfigKeyed's archiving:
// the live learned state merges straight into the profiler's archive,
// skipping the intermediate Profile an ExportProfile + Merge round trip
// would allocate every configuration.
type profileArchiver interface {
	// hasLiveState reports whether archiveInto would contribute anything.
	hasLiveState() bool
	// archiveInto merges the live state into dst, bit-identical to
	// dst.Merge(ExportProfile()).
	archiveInto(dst *Profile)
}

// ciMean is the paper's estimator: a Welford mean/variance accumulator per
// kernel signature, the normal-theory confidence interval of Section III-A
// for predictability, and (optionally) the per-routine-family log-log fit
// of extrapolate.go. A loaded prior forms a read-only layer under the live
// accumulators: queries merge the two, observations go to the live layer
// only, and Reset clears only the live layer.
type ciMean struct {
	extrapolate bool
	cur         map[Key]*stats.Welford
	prior       map[Key]stats.Welford
	families    map[string]*familyModel
	// pooled marks keys whose live accumulator was installed by eager
	// cross-rank aggregation: it holds other ranks' samples, so profile
	// exports flag it (KernelModel.Pooled) and same-run rank merges keep
	// the best copy instead of summing the shared samples p times.
	pooled map[Key]bool
	// priorProfile re-seeds the family models on Reset (Welford priors stay
	// resident in prior and need no re-seeding).
	priorProfile *Profile

	// lastKey/lastW short-circuit the cur-map lookup for back-to-back
	// queries of the same signature (Observe right after Predictable,
	// tight kernel loops), skipping the Key hash. Invalidated whenever an
	// entry pointer may change (Reset, ImportWelford).
	lastKey   Key
	lastW     *stats.Welford
	lastValid bool

	// slabs allocates live accumulators in fixed-size chunks that survive
	// Reset: configurations churn through disjoint signature sets (tile
	// sizes change), and per-key heap allocations would repay that churn
	// every configuration. Chunks never move, so map-held pointers stay
	// valid until Reset drops them.
	slabs    [][]stats.Welford
	slabUsed int // accumulators handed out from the current layout

	// byID is the dense id-indexed view of cur behind the idEstimator fast
	// path: byID[id] caches the live accumulator of the signature the
	// profiler interned as id, so the steady-state observe/estimate/
	// predictable path skips the Key hash entirely. Ids are only stable
	// within a configuration, so Reset — called exactly when the profiler
	// re-keys its id space — drops the whole view (the pointers would
	// otherwise dangle into recycled slab slots).
	byID []*stats.Welford
}

// idEstimator is the internal estimator fast path keyed by the profiler's
// dense kernel ids: every method is bit-identical to its Key-keyed
// counterpart on Estimator, minus the hash. The profiler consults it only
// when the estimator opts in (the built-in ciMean does); the Key is always
// passed alongside so cold ids can fall back to the canonical path.
type idEstimator interface {
	observeID(id uint32, key Key, flops, dt, eps float64)
	estimateID(id uint32, key Key) float64
	predictableID(id uint32, key Key, eps float64, freq int64) bool
	// invalidateID severs a cached id→accumulator association after the
	// key's live model was replaced out-of-band (eager pooling).
	invalidateID(id uint32)
}

// wByID returns the dense-cached live accumulator for id, or nil when the
// id is cold (never observed this configuration).
func (e *ciMean) wByID(id uint32) *stats.Welford {
	if int(id) < len(e.byID) {
		return e.byID[id]
	}
	return nil
}

// cacheID associates id with live accumulator w.
func (e *ciMean) cacheID(id uint32, w *stats.Welford) {
	if n := int(id) + 1; n > len(e.byID) {
		if n <= cap(e.byID) {
			e.byID = e.byID[:n]
		} else {
			c := cap(e.byID) * 2
			if c < n {
				c = n
			}
			if c < 64 {
				c = 64
			}
			grown := make([]*stats.Welford, n, c)
			copy(grown, e.byID)
			e.byID = grown
		}
	}
	e.byID[id] = w
}

// observeID implements idEstimator: Observe minus the Key hash on the
// steady-state path.
func (e *ciMean) observeID(id uint32, key Key, flops, dt, eps float64) {
	w := e.wByID(id)
	if w == nil {
		w = e.curOf(key)
		if w == nil {
			w = e.newWelford()
			e.cur[key] = w
			e.lastKey, e.lastW, e.lastValid = key, w, true
		}
		e.cacheID(id, w)
	}
	w.Add(dt)
	if !e.extrapolate || key.Kind != KindComp || flops <= 0 {
		return
	}
	m := e.model(key)
	if m.Count() < 2 || !m.Predictable(eps, 1) {
		return
	}
	fm, ok := e.families[key.Name]
	if !ok {
		fm = newFamilyModel()
		e.families[key.Name] = fm
	}
	fm.add(flops, m.Mean())
}

// estimateID implements idEstimator. With a prior layer loaded the query
// must merge it, so it falls back to the canonical path.
func (e *ciMean) estimateID(id uint32, key Key) float64 {
	if e.prior == nil {
		if w := e.wByID(id); w != nil {
			return w.Mean()
		}
	}
	return e.Estimate(key)
}

// predictableID implements idEstimator; same prior-layer fallback as
// estimateID.
func (e *ciMean) predictableID(id uint32, key Key, eps float64, freq int64) bool {
	if e.prior == nil {
		if w := e.wByID(id); w != nil {
			return w.Predictable(eps, freq)
		}
	}
	return e.Predictable(key, eps, freq)
}

// invalidateID implements idEstimator.
func (e *ciMean) invalidateID(id uint32) {
	if int(id) < len(e.byID) {
		e.byID[id] = nil
	}
}

// slabChunk is the accumulator chunk size (amortizes chunk headers without
// holding large dead spans alive).
const slabChunk = 128

// slabRecycler is the internal estimator interface behind KernelMemo's
// arena recycling: a retiring profiler extracts its estimator's accumulator
// slabs (releaseSlabs) and the next profiler's estimator adopts them
// (adoptSlabs). Slab contents need not be zeroed — newWelford zeroes each
// accumulator on handout — so donation and adoption are both O(chunks).
type slabRecycler interface {
	adoptSlabs([][]stats.Welford)
	releaseSlabs() [][]stats.Welford
}

// adoptSlabs implements slabRecycler. Only a freshly constructed estimator
// may adopt (live map entries point into the current slabs).
func (e *ciMean) adoptSlabs(s [][]stats.Welford) {
	if len(e.slabs) == 0 && e.slabUsed == 0 {
		e.slabs = s
	}
}

// releaseSlabs implements slabRecycler: hands the slabs off and severs them
// from the (now retired) estimator.
func (e *ciMean) releaseSlabs() [][]stats.Welford {
	s := e.slabs
	e.slabs = nil
	e.slabUsed = 0
	e.cur = nil
	e.byID = nil
	e.lastValid = false
	return s
}

// newWelford hands out a zeroed accumulator from the slab.
func (e *ciMean) newWelford() *stats.Welford {
	chunk, idx := e.slabUsed/slabChunk, e.slabUsed%slabChunk
	if chunk == len(e.slabs) {
		e.slabs = append(e.slabs, make([]stats.Welford, slabChunk))
	}
	e.slabUsed++
	w := &e.slabs[chunk][idx]
	*w = stats.Welford{}
	return w
}

// curOf returns the live accumulator for key (nil when none), through the
// one-entry lookup cache.
func (e *ciMean) curOf(key Key) *stats.Welford {
	if e.lastValid && key == e.lastKey {
		return e.lastW
	}
	w := e.cur[key]
	e.lastKey, e.lastW, e.lastValid = key, w, true
	return w
}

// NewCIMeanEstimator returns the built-in confidence-interval estimator the
// Profiler uses by default. extrapolate enables the family-model line
// fitting of Section VIII (Options.Extrapolate sets it for the default
// instance).
func NewCIMeanEstimator(extrapolate bool) Estimator {
	return &ciMean{
		extrapolate: extrapolate,
		cur:         make(map[Key]*stats.Welford),
		families:    make(map[string]*familyModel),
	}
}

// Name implements Estimator.
func (e *ciMean) Name() string { return "ci-mean" }

// model returns the combined (prior + live) accumulator for key. With no
// prior layer the live accumulator is returned as-is, reproducing the
// original hardwired path bit-for-bit.
func (e *ciMean) model(key Key) stats.Welford {
	cw := e.curOf(key)
	if e.prior == nil {
		if cw != nil {
			return *cw
		}
		return stats.Welford{}
	}
	w, hasPrior := e.prior[key]
	if !hasPrior {
		if cw != nil {
			return *cw
		}
		return stats.Welford{}
	}
	if cw != nil {
		w.Merge(*cw)
	}
	return w
}

// Observe implements Estimator: one Welford update, then — when
// extrapolation is on — the family feeding rule of noteFamily: a
// predictable computation-kernel model contributes its (flops, mean) point
// to its routine family.
func (e *ciMean) Observe(key Key, flops, dt, eps float64) {
	w := e.curOf(key)
	if w == nil {
		w = e.newWelford()
		e.cur[key] = w
		e.lastKey, e.lastW, e.lastValid = key, w, true
	}
	w.Add(dt)
	if !e.extrapolate || key.Kind != KindComp || flops <= 0 {
		return
	}
	m := e.model(key)
	if m.Count() < 2 || !m.Predictable(eps, 1) {
		return
	}
	fm, ok := e.families[key.Name]
	if !ok {
		fm = newFamilyModel()
		e.families[key.Name] = fm
	}
	fm.add(flops, m.Mean())
}

// Estimate implements Estimator.
func (e *ciMean) Estimate(key Key) float64 {
	m := e.model(key)
	return m.Mean()
}

// Samples implements Estimator.
func (e *ciMean) Samples(key Key) int64 {
	m := e.model(key)
	return m.Count()
}

// Predictable implements Estimator.
func (e *ciMean) Predictable(key Key, eps float64, freq int64) bool {
	m := e.model(key)
	return m.Predictable(eps, freq)
}

// Extrapolate implements Estimator: the family-model prediction of
// extrapolate.go, when enabled and trustworthy.
func (e *ciMean) Extrapolate(key Key, flops, eps float64) (float64, bool) {
	if !e.extrapolate || key.Kind != KindComp || flops <= 0 {
		return 0, false
	}
	fm, ok := e.families[key.Name]
	if !ok {
		return 0, false
	}
	return fm.predict(flops, eps)
}

// Reset implements Estimator: live models are discarded; the prior layer
// (and prior-seeded family points) survive.
func (e *ciMean) Reset() {
	clear(e.cur)
	e.families = make(map[string]*familyModel)
	e.pooled = nil
	e.lastValid = false
	e.slabUsed = 0 // all map-held slab pointers were just dropped
	clear(e.byID)
	e.byID = e.byID[:0] // ids are about to be re-keyed; drop the dense view
	if e.priorProfile != nil {
		e.seedFamilies(e.priorProfile)
	}
}

// ExportWelford implements WelfordCarrier: the rank-local live layer only.
// The prior is shared by every rank, so pooling it here would count it
// once per rank; it stays layered underneath and enters every query
// through model() instead.
func (e *ciMean) ExportWelford(key Key) (stats.Welford, bool) {
	w, ok := e.cur[key]
	if !ok {
		return stats.Welford{}, false
	}
	return *w, true
}

// ImportWelford implements WelfordCarrier: a pooled model replaces the
// live layer (any prior stays layered underneath, counted once) and the
// key is marked pooled for profile exports.
func (e *ciMean) ImportWelford(key Key, w stats.Welford) {
	cw := w
	e.cur[key] = &cw
	e.lastValid = false // the key's entry pointer just changed
	if e.pooled == nil {
		e.pooled = make(map[Key]bool)
	}
	e.pooled[key] = true
}

// ExportProfile implements ProfileCarrier: the live layer only (prior
// samples are excluded so chained runs can merge profiles without
// double-counting), plus every family point currently fitted — family
// points are snapshots keyed by flops, so re-exporting prior-seeded points
// is lossless under MergeProfiles.
func (e *ciMean) ExportProfile() *Profile {
	p := &Profile{
		SchemaVersion: ProfileSchemaVersion,
		Estimator:     e.Name(),
		Kernels:       make(map[Key]KernelModel, len(e.cur)),
		Families:      make(map[string]Family, len(e.families)),
	}
	for key, w := range e.cur {
		if w.Count() == 0 {
			continue
		}
		p.Kernels[key] = KernelModel{
			Count: w.Count(), Mean: w.Mean(), M2: w.M2(),
			Pooled: e.pooled[key],
		}
	}
	for name, fm := range e.families {
		if len(fm.points) == 0 {
			continue
		}
		pts := make([]FamilyPoint, 0, len(fm.points))
		for _, pt := range fm.points {
			pts = append(pts, FamilyPoint{Flops: pt.flops, Mean: pt.mean})
		}
		sort.Slice(pts, func(i, j int) bool { return pts[i].Flops < pts[j].Flops })
		p.Families[name] = Family{Points: pts}
	}
	return p
}

// hasLiveState implements profileArchiver.
func (e *ciMean) hasLiveState() bool {
	if len(e.cur) > 0 {
		return true
	}
	for _, fm := range e.families {
		if len(fm.points) > 0 {
			return true
		}
	}
	return false
}

// archiveInto implements profileArchiver: the kernel and family loops of
// Profile.Merge applied directly from the live maps. The merge direction
// (archive-side accumulator first) matches Merge exactly, so the archived
// moments are bit-identical to the ExportProfile + Merge path.
func (e *ciMean) archiveInto(dst *Profile) {
	for key, w := range e.cur {
		if w.Count() == 0 {
			continue
		}
		om := KernelModel{
			Count: w.Count(), Mean: w.Mean(), M2: w.M2(),
			Pooled: e.pooled[key],
		}
		if dst.Kernels == nil {
			dst.Kernels = make(map[Key]KernelModel, len(e.cur))
		}
		km, ok := dst.Kernels[key]
		if !ok {
			dst.Kernels[key] = om
			continue
		}
		wm := welfordOf(km)
		wm.Merge(welfordOf(om))
		dst.Kernels[key] = KernelModel{
			Count: wm.Count(), Mean: wm.Mean(), M2: wm.M2(),
			Pooled: km.Pooled || om.Pooled,
		}
	}
	for name, fm := range e.families {
		if len(fm.points) == 0 {
			continue
		}
		pts := make([]FamilyPoint, 0, len(fm.points))
		for _, pt := range fm.points {
			pts = append(pts, FamilyPoint{Flops: pt.flops, Mean: pt.mean})
		}
		sort.Slice(pts, func(i, j int) bool { return pts[i].Flops < pts[j].Flops })
		if dst.Families == nil {
			dst.Families = make(map[string]Family, len(e.families))
		}
		if fam, ok := dst.Families[name]; ok {
			dst.Families[name] = Family{Points: mergePoints(fam.Points, pts)}
		} else {
			dst.Families[name] = Family{Points: pts}
		}
	}
}

// LoadPrior implements ProfileCarrier. Kernel models become the read-only
// prior layer; family points seed the extrapolator. Both survive Reset.
func (e *ciMean) LoadPrior(prior *Profile) {
	if prior == nil {
		return
	}
	e.priorProfile = prior
	e.prior = make(map[Key]stats.Welford, len(prior.Kernels))
	for key, km := range prior.Kernels {
		e.prior[key] = stats.WelfordFromMoments(km.Count, km.Mean, km.M2)
	}
	e.seedFamilies(prior)
}

// seedFamilies installs the prior's family points into fresh models.
func (e *ciMean) seedFamilies(prior *Profile) {
	for name, fam := range prior.Families {
		fm, ok := e.families[name]
		if !ok {
			fm = newFamilyModel()
			e.families[name] = fm
		}
		for _, pt := range fam.Points {
			fm.add(pt.Flops, pt.Mean)
		}
	}
}
