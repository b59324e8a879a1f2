package critter

import (
	"fmt"

	"critter/internal/channel"
	"critter/internal/mpi"
	"critter/internal/obs"
	"critter/internal/sim"
	"critter/internal/stats"
)

// kernelStats is the per-rank execution bookkeeping of one kernel signature
// (an entry of the set K in the paper's notation), stored densely by
// KernelTable id. The signature's duration model itself lives in the rank's
// Estimator.
type kernelStats struct {
	// seen marks the slot as belonging to a signature this rank has
	// actually profiled (dense storage leaves holes for ids interned only
	// by other ranks).
	seen bool
	// propagated marks the kernel globally skippable under the eager
	// policy: its statistics have covered the full processor grid.
	propagated bool
	// perConfig counts executions of the kernel during the current
	// configuration; non-eager policies require at least one execution per
	// tuning iteration before skipping (Section VI-A).
	perConfig int64
	// coverage accumulates the aggregate channel over which this kernel's
	// statistics have been propagated (eager policy).
	coverage channel.Channel
}

// Options configures a Profiler.
type Options struct {
	// Policy selects the selective-execution method.
	Policy Policy
	// Eps is the confidence tolerance: a kernel is predictable when its
	// relative confidence interval falls below Eps. Eps <= 0 disables
	// selective execution entirely (full execution; the reference mode).
	Eps float64
	// AprioriFreq supplies fixed critical-path execution counts for the
	// APriori policy, measured on a preceding full execution.
	AprioriFreq map[Key]int64
	// Extrapolate enables kernel-model extrapolation across input sizes
	// (the line-fitting extension of Section VIII): a computation kernel
	// with an unseen or under-sampled signature may be skipped using a
	// least-squares fit over its routine family's (flops, mean) points.
	// Consulted only by the default estimator; a custom Estimator makes
	// its own extrapolation choice.
	Extrapolate bool
	// Estimator selects the prediction model; nil means the paper's
	// CI-mean estimator (NewCIMeanEstimator) with Extrapolate as
	// configured, which reproduces the hardwired pre-Estimator path
	// bit-for-bit. Each rank needs its own instance.
	Estimator Estimator
	// Prior warm-starts the estimator from a profile exported by an
	// earlier run (Profiler.ExportProfile / GlobalProfile). Ignored when
	// the estimator does not implement ProfileCarrier. The prior survives
	// StartConfigKeyed resets: every configuration starts from it.
	Prior *Profile
	// Memo, when non-nil, attaches the sweep-scoped cross-config
	// memoization cache (see KernelMemo): configurations started through
	// StartConfigKeyed adopt tables published by earlier profilers of the
	// same configuration, and Retire recycles this profiler's dense arenas
	// into the cache. Every rank of a world must receive the same memo.
	// Purely an optimization — all results are byte-identical with or
	// without one.
	Memo *KernelMemo
}

// Profiler is one rank's profiling state. Create one per rank with New,
// which also wraps the rank's world communicator. All ranks must construct
// their Profiler collectively (New performs communication).
//
// Kernel signatures are interned into dense ids through a KernelTable
// shared by every rank of the world, so the per-invocation bookkeeping
// (stats, path frequencies, local counts, path attribution) lives in flat
// arrays instead of maps and pathsets propagate between ranks without
// copying. Keys reappear only at the boundaries: the Estimator, profile
// exports, and reports.
type Profiler struct {
	opts  Options
	world *Comm
	rank  int
	psize int

	// tab is the world-shared signature interner; idOf and keys are this
	// rank's private caches of it (idOf avoids the table's lock on the
	// steady-state path, keys resolves ids this rank interned itself).
	tab  *KernelTable
	idOf map[Key]uint32
	keys []Key
	// roIDs/roKeys are the memo-published read-only intern snapshots of
	// the current configuration (nil outside a memo hit): a key present in
	// roIDs resolves without touching idOf or the table's lock, and ids
	// below len(roKeys) resolve back to keys through roKeys (keyAt). Novel
	// keys — possible only on a memo-key collision — overlay through
	// idOf/keys as usual.
	roIDs  map[Key]uint32
	roKeys []Key
	// lastKey/lastID short-circuit intern for back-to-back invocations of
	// the same kernel signature (the common case inside factorization
	// loops), skipping the idOf hash.
	lastKey   Key
	lastID    uint32
	lastValid bool

	// k is the dense per-signature bookkeeping, indexed by kernel id;
	// touched counts the seen entries (KernelCount).
	k       []kernelStats
	touched int
	path    Pathset
	// localFreq counts kernel appearances on this rank during the current
	// configuration (the Local policy's frequency credit), densely by id.
	localFreq []int64
	// pred caches propagation-point predictability outcomes per kernel id
	// (see predCache); grown in lockstep with k by ensure.
	pred []predCache

	// aggregates is the registry of aggregate channels (Figure 2, lines
	// 16-25), keyed by hash, seeded with the world channel.
	aggregates map[uint64]channel.Channel

	// pathKernelTime attributes path time to kernels for the profiling
	// report (profile_report.go), densely by id; an id is on this rank's
	// path this configuration iff localFreq[id] > 0.
	pathKernelTime []float64

	// lane is the pre-resolved typed-message lane the piggyback protocol
	// runs on (one fabric lookup at construction instead of per message).
	// flane carries the sender-to-receiver leg of the point-to-point
	// protocol as fused messages: a committed send's vote travels with its
	// data as one timed message (comm.go).
	lane  mpi.Lane[intMsg]
	flane mpi.FusedLane[intMsg]

	// est is the rank's prediction model (estimator.go): kernel duration
	// estimates, predictability decisions, and extrapolation. fast is its
	// dense id-indexed view when the estimator offers one (the built-in
	// ciMean does); nil otherwise.
	est  Estimator
	fast idEstimator
	// archive accumulates profile exports across StartConfigKeyed resets, so
	// ExportProfile covers everything the run learned, not just the
	// current configuration.
	archive *Profile
	// extrapolatedSkips counts skips decided by family-model fits.
	extrapolatedSkips int64

	// trace receives kernel-propagation round events. It is non-nil only
	// on rank 0 of a world with an installed tracer (see World.SetTracer),
	// so the stream is deterministic and the disabled path is one branch.
	trace obs.Tracer

	// memo is the attached cross-config cache (Options.Memo; nil disables
	// memoization). memoKey identifies the configuration started by
	// StartConfigKeyed; memoFresh marks rank 0 as owing the memo a
	// publication of the configuration's table at the next Report.
	memo      *KernelMemo
	memoKey   uint64
	memoFresh bool

	// Per-configuration accumulators.
	kernelTime     float64 // time spent actually executing selectable kernels
	compKernelTime float64 // same, computation kernels only
	volCommWords   float64 // local BSP communication (words)
	volSync        float64 // local BSP synchronization (messages)
	volFlops       float64 // local BSP computation (flops)
	executed       int64
	skipped        int64
	memoizedSkips  int64 // skips whose predictability decision was cache-served
	// lastMemoized marks whether the most recent shouldExecute call
	// resolved to a memo-served skip; traceRound consumes and clears it so
	// round events can distinguish memoized skips. Trace-only state: it
	// never feeds clocks, decisions, or reports.
	lastMemoized bool
}

// predCache memoizes one kernel id's propagation-point predictability
// outcomes. Estimator.Predictable is pure in (model state, eps, freq) and
// monotone nondecreasing in freq — a larger execution-count credit only
// shrinks the scaled confidence interval — so a single observation in each
// direction bounds the whole frequency axis: predictable at trueAt implies
// predictable at every freq >= trueAt, unpredictable at falseAt implies
// unpredictable at every freq <= falseAt. Zero means "no bound yet" (the
// frequency credit is always >= 1). Entries are invalidated per id when the
// model changes (record) and wholesale when eps or the whole model set
// changes (SetEps, StartConfigKeyed's statistics reset).
type predCache struct {
	trueAt  int64 // minimal freq observed predictable (0: none)
	falseAt int64 // maximal freq observed unpredictable (0: none)
}

// New creates the rank's profiler and wraps its world communicator. It is
// collective over world: an internal duplicate communicator is created for
// piggyback traffic, and rank 0's KernelTable is adopted by every rank.
func New(world *mpi.Comm, opts Options) (*Profiler, *Comm) {
	p := &Profiler{
		opts:       opts,
		rank:       world.Rank(),
		psize:      world.Size(),
		memo:       opts.Memo,
		aggregates: make(map[uint64]channel.Channel),
	}
	// Adopt a retired profiler's arena before allocating anything it could
	// supply: the dense per-id tables, the private intern cache, and — once
	// the estimator exists — its accumulator slabs.
	var slabs [][]stats.Welford
	if p.memo != nil {
		if a := p.memo.acquireArena(); a != nil {
			p.idOf = a.idOf
			p.keys = a.keys
			p.k = a.k
			p.localFreq = a.localFreq
			p.pathKernelTime = a.pathKernelTime
			p.pred = a.pred
			p.path.Kernels = kernelCounts{vals: a.counts}
			slabs = a.slabs
		}
	}
	if p.idOf == nil {
		p.idOf = make(map[Key]uint32)
	}
	p.est = opts.Estimator
	if p.est == nil {
		p.est = NewCIMeanEstimator(opts.Extrapolate)
	}
	if slabs != nil {
		if r, ok := p.est.(slabRecycler); ok {
			r.adoptSlabs(slabs)
		}
	}
	if f, ok := p.est.(idEstimator); ok {
		p.fast = f
	}
	if opts.Prior != nil {
		if pc, ok := p.est.(ProfileCarrier); ok {
			pc.LoadPrior(opts.Prior)
		}
	}
	ch, ok := channel.FromGroup(world.Group())
	if ok {
		p.aggregates[ch.Hash()] = ch
	}
	internal := world.Dup()
	// Adopt one shared signature interner per world: rank 0 creates it,
	// the gather (untimed, clock-neutral at construction) hands it to all.
	var mine *KernelTable
	if p.rank == 0 {
		mine = NewKernelTable()
	}
	tabs := mpi.GatherMsgUntimed(internal, mine)
	p.tab = tabs[0]
	p.lane = mpi.LaneOf[intMsg](world.World())
	p.flane = mpi.FusedLaneOf[intMsg](world.World())
	if p.rank == 0 {
		p.trace = world.World().TracerOf()
	}
	cc := &Comm{
		p:        p,
		user:     world,
		internal: internal,
		ch:       ch,
		chOK:     ok,
	}
	p.world = cc
	return p, cc
}

// Policy returns the active selective-execution policy.
func (p *Profiler) Policy() Policy { return p.opts.Policy }

// Eps returns the active confidence tolerance.
func (p *Profiler) Eps() float64 { return p.opts.Eps }

// Estimator returns the rank's prediction model.
func (p *Profiler) Estimator() Estimator { return p.est }

// World returns the wrapped world communicator.
func (p *Profiler) World() *Comm { return p.world }

// Table returns the world-shared kernel-signature interner.
func (p *Profiler) Table() *KernelTable { return p.tab }

// intern resolves key's dense id through the rank-local caches, hitting the
// shared table only on first sight. Under a memo hit the published read-only
// snapshot answers first — no private-cache insert, no table lock — and only
// keys the snapshot has never seen fall through to the overlay path.
func (p *Profiler) intern(key Key) uint32 {
	if p.lastValid && key == p.lastKey {
		return p.lastID
	}
	if id, ok := p.roIDs[key]; ok {
		p.lastKey, p.lastID, p.lastValid = key, id, true
		return id
	}
	if id, ok := p.idOf[key]; ok {
		p.lastKey, p.lastID, p.lastValid = key, id, true
		return id
	}
	id := p.tab.Intern(key)
	p.idOf[key] = id
	if n := int(id) + 1; n > len(p.keys) {
		if n <= cap(p.keys) {
			p.keys = p.keys[:n]
		} else {
			keys := make([]Key, n, growCap(n, cap(p.keys)))
			copy(keys, p.keys)
			p.keys = keys
		}
	}
	p.keys[id] = key
	p.lastKey, p.lastID, p.lastValid = key, id, true
	return id
}

// keyAt resolves an id this rank has interned back to its signature: through
// the memo snapshot when the id predates it, through the private keys cache
// otherwise. (The table's ids below len(roKeys) were assigned before the
// snapshot was taken, so roKeys covers exactly the ids the private cache
// does not.)
func (p *Profiler) keyAt(id uint32) Key {
	if int(id) < len(p.roKeys) {
		return p.roKeys[id]
	}
	return p.keys[id]
}

// growCap sizes a dense per-id table that must hold n entries: double the
// outgrown capacity c, bounded below by n (and a small floor).
func growCap(n, c int) int {
	c *= 2
	if c < n {
		c = n
	}
	if c < 16 {
		c = 16
	}
	return c
}

// ensure grows the dense per-id bookkeeping tables to cover id.
func (p *Profiler) ensure(id uint32) {
	n := int(id) + 1
	if n <= len(p.k) {
		return
	}
	if n <= cap(p.k) {
		// Backing arrays are allocated zeroed and cleared in place on
		// reset (and zeroed before arena donation), so extending within
		// capacity exposes zero slots.
		p.k = p.k[:n]
		p.localFreq = p.localFreq[:n]
		p.pathKernelTime = p.pathKernelTime[:n]
		p.pred = p.pred[:n]
		return
	}
	c := growCap(n, cap(p.k))
	k := make([]kernelStats, n, c)
	copy(k, p.k)
	p.k = k
	lf := make([]int64, n, c)
	copy(lf, p.localFreq)
	p.localFreq = lf
	pkt := make([]float64, n, c)
	copy(pkt, p.pathKernelTime)
	p.pathKernelTime = pkt
	pc := make([]predCache, n, c)
	copy(pc, p.pred)
	p.pred = pc
}

// stats returns the bookkeeping slot for kernel id, marking it profiled.
// The pointer is invalidated by the next ensure/stats call that grows the
// tables; take all needed slots after a single ensure when holding two.
func (p *Profiler) stats(id uint32) *kernelStats {
	p.ensure(id)
	ks := &p.k[id]
	if !ks.seen {
		ks.seen = true
		p.touched++
	}
	return ks
}

// KernelCount returns the number of distinct kernel signatures profiled so
// far on this rank.
func (p *Profiler) KernelCount() int { return p.touched }

// Mean returns the modeled mean duration for key (0 if never sampled; a
// warm-started estimator answers from its prior before the first sample).
func (p *Profiler) Mean(key Key) float64 { return p.est.Estimate(key) }

// Samples returns the number of duration samples backing key's model.
func (p *Profiler) Samples(key Key) int64 { return p.est.Samples(key) }

// estimate returns the modeled duration charged for a skipped kernel,
// through the estimator's id-indexed fast path when it offers one.
func (p *Profiler) estimate(key Key, id uint32) float64 {
	if p.fast != nil {
		return p.fast.estimateID(id, key)
	}
	return p.est.Estimate(key)
}

// pathFreqMap rekeys a dense frequency table by Key for the map-facing
// boundaries. Ids may have been interned by any rank, so the shared table
// resolves them.
func (p *Profiler) pathFreqMap(kc kernelCounts) map[Key]int64 {
	out := make(map[Key]int64)
	for id, v := range kc.vals {
		if v != 0 {
			out[p.tab.KeyOf(uint32(id))] = v
		}
	}
	return out
}

// PathFreqs returns a copy of the rank's current path frequency table.
func (p *Profiler) PathFreqs() map[Key]int64 {
	return p.pathFreqMap(p.path.Kernels)
}

// notePath records one appearance of kernel id along the rank's execution
// path. The caller has interned id on this rank (stats), so localFreq
// covers it.
func (p *Profiler) notePath(id uint32) {
	p.path.Kernels.incr(id)
	p.localFreq[id]++
}

// freqFor returns the execution-count credit the active policy grants when
// sizing key's confidence interval.
func (p *Profiler) freqFor(key Key, id uint32) int64 {
	switch p.opts.Policy {
	case Local:
		return p.localFreq[id]
	case Online:
		return p.path.Kernels.get(id)
	case APriori:
		if f := p.opts.AprioriFreq[key]; f > 0 {
			return f
		}
	}
	return 1
}

// shouldExecute decides whether the kernel must actually run. For the eager
// policy the decision is the global propagation flag; for all other
// policies the kernel must have executed at least once this configuration
// and is skipped only when predictable at tolerance Eps under the policy's
// frequency credit. Decisions replayed from the predictability cache that
// result in a skip are counted as memoized (Report.Memoized).
func (p *Profiler) shouldExecute(key Key, id uint32, ks *kernelStats) bool {
	p.lastMemoized = false
	if p.opts.Eps <= 0 {
		return true
	}
	if p.opts.Policy == Eager {
		return !ks.propagated
	}
	if ks.perConfig < 1 {
		return true
	}
	pred, hit := p.predictable(key, id, p.freqFor(key, id))
	if pred && hit {
		p.memoizedSkips++
		p.lastMemoized = true
	}
	return !pred
}

// predictable answers the propagation-point CI tolerance test through the
// per-id decision cache, reporting whether the answer was replayed. The
// steady-state skip path — a converged signature re-encountered with an
// ever-growing frequency credit — reduces to two integer compares.
func (p *Profiler) predictable(key Key, id uint32, freq int64) (pred, hit bool) {
	c := &p.pred[id]
	if c.trueAt != 0 && freq >= c.trueAt {
		return true, true
	}
	if c.falseAt != 0 && freq <= c.falseAt {
		return false, true
	}
	if p.fast != nil {
		pred = p.fast.predictableID(id, key, p.opts.Eps, freq)
	} else {
		pred = p.est.Predictable(key, p.opts.Eps, freq)
	}
	if pred {
		if c.trueAt == 0 || freq < c.trueAt {
			c.trueAt = freq
		}
	} else if freq > c.falseAt {
		c.falseAt = freq
	}
	return pred, false
}

// record incorporates one measured duration for key: the estimator observes
// the sample and the per-configuration execution counters advance. The new
// sample changes the kernel's model, so its cached predictability bounds are
// dropped.
func (p *Profiler) record(key Key, id uint32, ks *kernelStats, flops, dt float64) {
	if p.fast != nil {
		p.fast.observeID(id, key, flops, dt, p.opts.Eps)
	} else {
		p.est.Observe(key, flops, dt, p.opts.Eps)
	}
	p.pred[id] = predCache{}
	ks.perConfig++
	p.executed++
	p.kernelTime += dt
	if key.Kind == KindComp {
		p.compKernelTime += dt
	}
}

// snapshot captures the rank's pathset for an internal message. Under
// policies that propagate counts the frequency table is frozen in place
// (copy-on-write; no copy is taken), otherwise the message carries none.
func (p *Profiler) snapshot() Pathset {
	ps := p.path
	if p.opts.Policy == Online {
		ps.Kernels = p.path.Kernels.freeze()
	} else {
		ps.Kernels = kernelCounts{}
	}
	return ps
}

// adopt installs the merged global pathset: metrics are already max-merged;
// the frequency table, when propagated, replaces the local one wholesale
// (the local path joins the global sub-critical path). The adopted table
// stays frozen — other ranks alias it — and is copied lazily by the next
// local count.
func (p *Profiler) adopt(g Pathset) {
	kernels := p.path.Kernels
	if g.Kernels.active() {
		kernels = g.Kernels
		kernels.shared = true
	}
	p.path = Pathset{
		ExecTime: max(p.path.ExecTime, g.ExecTime),
		CompTime: max(p.path.CompTime, g.CompTime),
		CommTime: max(p.path.CommTime, g.CommTime),
		BSPComm:  max(p.path.BSPComm, g.BSPComm),
		BSPSync:  max(p.path.BSPSync, g.BSPSync),
		BSPComp:  max(p.path.BSPComp, g.BSPComp),
		Kernels:  kernels,
	}
}

// Kernel intercepts one computation kernel invocation: name and dims form
// the signature, flops drives the machine model, and run performs the
// actual numerics. When the kernel is deemed predictable, run is not called
// and the model mean is charged to the pathset instead of virtual time.
// It returns the duration charged to the path.
func (p *Profiler) Kernel(name string, d1, d2, d3, d4 int, flops float64, run func()) float64 {
	key := CompKey(name, d1, d2, d3, d4)
	id := p.intern(key)
	ks := p.stats(id)
	p.notePath(id)
	var dt float64
	exec := p.shouldExecute(key, id, ks)
	if exec && p.opts.Eps > 0 && flops > 0 {
		// Line-fitting extension: an under-sampled signature may still
		// be skipped when its routine family's fit is trustworthy.
		if est, ok := p.est.Extrapolate(key, flops, p.opts.Eps); ok &&
			!p.est.Predictable(key, p.opts.Eps, p.freqFor(key, id)) {
			exec = false
			dt = est
			p.extrapolatedSkips++
		}
	}
	if exec {
		dt = p.world.user.Compute(flops)
		run()
		p.record(key, id, ks, flops, dt)
	} else {
		if dt == 0 {
			dt = p.estimate(key, id)
		}
		p.skipped++
	}
	p.path.ExecTime += dt
	p.path.CompTime += dt
	p.path.BSPComp += flops
	p.volFlops += flops
	p.pathKernelTime[id] += dt
	return dt
}

// Role names which execution of a configuration a run is.
type Role uint8

// Run roles.
const (
	// RoleReference is the full execution a configuration's selective
	// runs are judged against (the ground truth).
	RoleReference Role = iota
	// RoleSelective is an execution under a selective policy.
	RoleSelective
)

// RunKey identifies one execution of a configuration: the configuration
// (ConfigKey), the run's role, and its pass — 0, or 1 for the second of
// two back-to-back runs of one role (the a-priori policy's selective pass
// after its offline pass).
type RunKey struct {
	Config uint64
	Role   Role
	Pass   uint8
}

// tabMsg is the payload of StartConfigKeyed's alignment round: a fresh interner
// to distribute, or a memo-published configuration to adopt (both nil on
// every rank but 0, and on rank 0 when ids are not being reset).
type tabMsg struct {
	tab *KernelTable
	mc  *MemoEntry
}

// StartConfigKeyed begins run, a new execution of a tuning configuration:
// the pathset, per-config counters, and volumetric accumulators are
// cleared, virtual clocks are reset collectively, and — when resetStats is
// true — all kernel models are discarded (the paper resets statistics
// between configurations of SLATE's and CANDMC's algorithms; eager
// propagation keeps its models to reuse them across configurations).
// Collective over the world communicator.
//
// Right after the alignment round every rank begins a noise epoch keyed by
// run (mpi.Comm.BeginEpoch), so the run's virtual timings depend only on
// (world seed, run, rank) — not on whatever the world ran before — and a
// run repeated in any world, after any other runs, reproduces the same
// report. With a KernelMemo attached (Options.Memo) and the statistics
// reset in effect, the configuration also adopts the memo-published
// interner of an earlier run of the same configuration — or, on the first
// run anywhere, publishes its own at the next Report; the memo never
// changes results.
//
// The dense per-id tables are cleared in place, so the steady state across
// configurations allocates nothing.
func (p *Profiler) StartConfigKeyed(resetStats bool, run RunKey) {
	cfg := run.Config
	resetIDs := resetStats && p.opts.Policy != Eager
	// Align ranks before resetting clocks; when the per-id bookkeeping is
	// about to be discarded anyway, the same round distributes the next
	// shared interner, so dense ids stay as compact as the configuration's
	// active kernel set instead of accumulating across configurations
	// (every copy-on-write snapshot copy is sized by the id high-water
	// mark). With a memo attached, rank 0 first checks whether an earlier
	// profiler already published this configuration's interner; on a hit
	// the round distributes the published table and its read-only intern
	// snapshots instead of an empty table.
	var msg tabMsg
	if resetIDs && p.rank == 0 {
		if p.memo != nil {
			msg.mc = p.memo.lookup(cfg)
		}
		if msg.mc == nil {
			msg.tab = NewKernelTable()
		}
	}
	g := mpi.GatherMsgUntimed(p.world.internal, msg)[0]
	p.world.internal.BeginEpoch(sim.Mix(cfg, uint64(run.Role), uint64(run.Pass)))
	p.world.user.ResetClock()
	p.archivePathFreqs() // resolves ids through the outgoing table
	p.kernelTime, p.compKernelTime = 0, 0
	p.volCommWords, p.volSync, p.volFlops = 0, 0, 0
	p.executed, p.skipped, p.memoizedSkips = 0, 0, 0
	if resetIDs {
		// Archive what the estimator learned before wiping it, so the
		// run's exported profile spans every configuration. (Without a
		// reset the live estimator state persists and is merged at export
		// time instead — archiving it here would double-count samples.)
		p.archiveEstimator()
		p.est.Reset()
		p.extrapolatedSkips = 0
		p.memoKey = cfg
		if g.mc != nil {
			// Memo hit: adopt the published interner and snapshots.
			p.tab = g.mc.tab
			p.roIDs, p.roKeys = g.mc.idOf, g.mc.keys
			p.memoFresh = false
		} else {
			p.tab = g.tab
			p.roIDs, p.roKeys = nil, nil
			// Rank 0 owes the memo this configuration's table once the
			// run completes (one publication per world, not per rank).
			p.memoFresh = p.memo != nil && p.rank == 0
		}
		// Empty the per-id tables down to zero length (capacity kept) so
		// they regrow to the new, compact id range.
		clear(p.idOf)
		p.lastValid = false
		clear(p.keys)
		p.keys = p.keys[:0]
		clear(p.k)
		p.k = p.k[:0]
		p.touched = 0
		clear(p.localFreq)
		p.localFreq = p.localFreq[:0]
		clear(p.pathKernelTime)
		p.pathKernelTime = p.pathKernelTime[:0]
		clear(p.pred)
		p.pred = p.pred[:0]
		kc := p.path.Kernels
		kc.reset()
		p.path = Pathset{Kernels: kernelCounts{vals: kc.vals[:0]}}
		if n := len(p.roKeys); n > 0 {
			// The configuration's id range is known up front: size the
			// dense tables once instead of growing them kernel by kernel.
			p.ensure(uint32(n - 1))
		}
		return
	}
	kc := p.path.Kernels
	kc.reset()
	p.path = Pathset{Kernels: kc}
	clear(p.localFreq)
	clear(p.pathKernelTime)
	for i := range p.k {
		p.k[i].perConfig = 0
	}
}

// SetEps changes the confidence tolerance (used by sweeps reusing one
// profiler). Cached predictability decisions are bound to the tolerance
// they were made under, so the cache is dropped wholesale.
func (p *Profiler) SetEps(eps float64) {
	p.opts.Eps = eps
	clear(p.pred)
}

// SetPolicy changes the selective-execution policy (used by the a-priori
// method, whose offline pass runs under online propagation).
func (p *Profiler) SetPolicy(pol Policy) { p.opts.Policy = pol }

// ExtrapolatedSkips returns how many kernel invocations were skipped via
// family-model extrapolation rather than their own signature's model.
func (p *Profiler) ExtrapolatedSkips() int64 { return p.extrapolatedSkips }

// SetAprioriFreq installs the critical-path counts for the APriori policy.
func (p *Profiler) SetAprioriFreq(f map[Key]int64) { p.opts.AprioriFreq = f }

// Report summarizes the configuration run. Collective over the world
// communicator: critical-path metrics and kernel-time maxima reduce with
// max, volumetric metrics average over ranks.
type Report struct {
	Predicted     float64 `json:"Predicted"`     // predicted execution time (max rank pathset)
	PredictedComp float64 `json:"PredictedComp"` // predicted critical-path computation time
	PredictedComm float64 `json:"PredictedComm"` // predicted critical-path communication time
	Wall          float64 `json:"Wall"`          // actual virtual time consumed (max rank clock)
	BSPCommCrit   float64 `json:"BSPCommCrit"`   // critical-path BSP communication (words)
	BSPSyncCrit   float64 `json:"BSPSyncCrit"`   // critical-path BSP synchronization (messages)
	BSPCompCrit   float64 `json:"BSPCompCrit"`   // critical-path BSP computation (flops)
	BSPCommVol    float64 `json:"BSPCommVol"`    // volumetric-average BSP communication
	BSPSyncVol    float64 `json:"BSPSyncVol"`    // volumetric-average BSP synchronization
	BSPCompVol    float64 `json:"BSPCompVol"`    // volumetric-average BSP computation
	KernelTime    float64 `json:"KernelTime"`    // max over ranks: time executing selectable kernels
	CompKernel    float64 `json:"CompKernel"`    // max over ranks: time executing compute kernels
	Executed      int64   `json:"Executed"`      // total kernel executions across ranks
	Skipped       int64   `json:"Skipped"`       // total kernel skips across ranks
	// Memoized counts the skips (across ranks) whose predictability
	// decision was replayed from the cross-config memoization layer rather
	// than re-derived; always <= Skipped. Excluded from serialized
	// envelopes: memoization is observational, and hit counts depend on
	// sweep order, so they must not perturb golden artifacts.
	Memoized int64 `json:"-"`
}

// reportMsg carries one rank's report contributions through the single
// fused reduction round: maxes reduce elementwise by max, sums by +.
type reportMsg struct {
	maxes [9]float64
	sums  [6]float64
}

// mergeReport folds report contributions in comm-rank order — elementwise
// max and left-to-right sums, the exact fold the former pair of untimed
// allreduces performed.
func mergeReport(a, b reportMsg) reportMsg {
	for i := range a.maxes {
		a.maxes[i] = max(a.maxes[i], b.maxes[i])
	}
	for i := range a.sums {
		a.sums[i] += b.sums[i]
	}
	return a
}

// Report gathers the configuration summary; collective over world. The max
// and sum reductions share one untimed round (clock- and noise-neutral:
// untimed rounds advance every rank to the same entry maximum and draw no
// randomness, so fusing them leaves virtual time bit-identical).
func (p *Profiler) Report() Report {
	local := reportMsg{
		maxes: [9]float64{
			p.path.ExecTime, p.path.CompTime, p.path.CommTime,
			p.path.BSPComm, p.path.BSPSync, p.path.BSPComp,
			p.world.user.Clock(), p.kernelTime, p.compKernelTime,
		},
		sums: [6]float64{
			p.volCommWords, p.volSync, p.volFlops,
			float64(p.executed), float64(p.skipped),
			float64(p.memoizedSkips),
		},
	}
	g := mpi.AllreduceMsg(p.world.internal, local, mergeReport)
	// The configuration is complete, so its interner is too: if this
	// profiler ran the configuration first (memo miss at StartConfigKeyed),
	// rank 0 publishes the table for every later profiler of the same
	// configuration — notably the selective run that follows this reference
	// run within the same sweep iteration.
	if p.memoFresh {
		p.memo.publish(p.memoKey, p.tab)
		p.memoFresh = false
	}
	maxes, sums := g.maxes, g.sums
	fp := float64(p.psize)
	return Report{
		Predicted:     maxes[0],
		PredictedComp: maxes[1],
		PredictedComm: maxes[2],
		BSPCommCrit:   maxes[3],
		BSPSyncCrit:   maxes[4],
		BSPCompCrit:   maxes[5],
		Wall:          maxes[6],
		KernelTime:    maxes[7],
		CompKernel:    maxes[8],
		BSPCommVol:    sums[0] / fp,
		BSPSyncVol:    sums[1] / fp,
		BSPCompVol:    sums[2] / fp,
		Executed:      int64(sums[3]),
		Skipped:       int64(sums[4]),
		Memoized:      int64(sums[5]),
	}
}

// Retire donates the profiler's recyclable per-rank state to the attached
// memo — dense per-id tables, the private intern cache, the path-frequency
// array, and the built-in estimator's accumulator slabs — for the next
// profiler built with Options.Memo on the same memo to adopt. The profiler
// must not be used afterwards. A no-op without a memo. Call it per rank
// once the sweep is done with the profiler (after the final Report /
// GlobalProfile).
func (p *Profiler) Retire() {
	if p.memo == nil {
		return
	}
	a := &memoArena{}
	clear(p.idOf)
	a.idOf = p.idOf
	clear(p.keys[:cap(p.keys)])
	a.keys = p.keys[:0]
	clear(p.k[:cap(p.k)])
	a.k = p.k[:0]
	clear(p.localFreq[:cap(p.localFreq)])
	a.localFreq = p.localFreq[:0]
	clear(p.pathKernelTime[:cap(p.pathKernelTime)])
	a.pathKernelTime = p.pathKernelTime[:0]
	clear(p.pred[:cap(p.pred)])
	a.pred = p.pred[:0]
	// The frequency array travels only when exclusively owned: a frozen
	// snapshot (an in-flight message, an adopted global table) may still
	// alias a shared one.
	if kc := p.path.Kernels; !kc.shared && kc.vals != nil {
		clear(kc.vals[:cap(kc.vals)])
		a.counts = kc.vals[:0]
	}
	if r, ok := p.est.(slabRecycler); ok {
		a.slabs = r.releaseSlabs()
	}
	p.memo.releaseArena(a)
	// Sever the donated state so accidental reuse fails loudly instead of
	// corrupting the adopter.
	p.memo = nil
	p.idOf, p.keys, p.k = nil, nil, nil
	p.localFreq, p.pathKernelTime, p.pred = nil, nil, nil
	p.roIDs, p.roKeys = nil, nil
	p.lastValid = false
	p.path.Kernels = kernelCounts{}
}

// GlobalPathFreqs merges the final path frequency tables across ranks,
// returning the table of the rank with the maximal predicted execution time
// (the configuration's critical path). Collective over world. Used to seed
// the APriori policy.
func (p *Profiler) GlobalPathFreqs() map[Key]int64 {
	ps := p.path
	ps.Kernels = p.path.Kernels.freeze()
	g := p.lane.Allreduce(p.world.internal, intMsg{Path: ps}, mergeIntMsg)
	return p.pathFreqMap(g.Path.Kernels)
}

// archivePathFreqs max-merges the configuration's path frequency table into
// the archive before StartConfigKeyed resets the pathset.
func (p *Profiler) archivePathFreqs() {
	freqs := p.path.Kernels
	if !freqs.active() {
		return
	}
	archived := false
	for id, v := range freqs.vals {
		if v == 0 {
			continue
		}
		if !archived {
			archived = true
			if p.archive == nil {
				p.archive = &Profile{SchemaVersion: ProfileSchemaVersion}
			}
			if p.archive.PathFreqs == nil {
				p.archive.PathFreqs = make(map[Key]int64)
			}
		}
		key := p.tab.KeyOf(uint32(id))
		p.archive.PathFreqs[key] = max(p.archive.PathFreqs[key], v)
	}
}

// archiveEstimator merges the estimator's current export into the archive;
// called only when the estimator is about to be reset, so no sample is ever
// archived twice. Estimators implementing profileArchiver (the built-in
// one) merge directly into the archive, skipping the intermediate export
// profile this would otherwise build every configuration.
func (p *Profiler) archiveEstimator() {
	if a, ok := p.est.(profileArchiver); ok {
		if !a.hasLiveState() {
			return
		}
		if p.archive == nil {
			p.archive = &Profile{SchemaVersion: ProfileSchemaVersion}
		}
		a.archiveInto(p.archive)
		if p.archive.Estimator == "" {
			p.archive.Estimator = p.est.Name()
		}
		return
	}
	pc, ok := p.est.(ProfileCarrier)
	if !ok {
		return
	}
	exp := pc.ExportProfile()
	if exp == nil || (len(exp.Kernels) == 0 && len(exp.Families) == 0) {
		return
	}
	if p.archive == nil {
		p.archive = &Profile{SchemaVersion: ProfileSchemaVersion}
	}
	p.archive.Merge(exp)
}

// ExportProfile returns this rank's learned profile: everything archived
// across configuration resets, the live estimator state, and the path
// frequencies seen so far. Samples loaded from Options.Prior are excluded,
// so chaining runs via MergeProfiles never counts a sample twice. Returns
// an empty (but non-nil) profile when the estimator does not implement
// ProfileCarrier.
func (p *Profiler) ExportProfile() *Profile {
	out := p.archive.Clone()
	if out == nil {
		out = &Profile{SchemaVersion: ProfileSchemaVersion}
	}
	if pc, ok := p.est.(ProfileCarrier); ok {
		out.Merge(pc.ExportProfile())
	}
	if out.Estimator == "" {
		out.Estimator = p.est.Name()
	}
	for id, v := range p.path.Kernels.vals {
		if v == 0 {
			continue
		}
		if out.PathFreqs == nil {
			out.PathFreqs = make(map[Key]int64)
		}
		key := p.tab.KeyOf(uint32(id))
		out.PathFreqs[key] = max(out.PathFreqs[key], v)
	}
	return out
}

// GlobalProfile merges every rank's exported profile into one artifact,
// identical on every rank. Collective over the world communicator. Each
// rank folds the gathered exports itself — one clone then in-place merges,
// instead of a clone per fold step — in comm-rank order, so every rank
// computes the identical artifact.
func (p *Profiler) GlobalProfile() *Profile {
	profs := mpi.GatherMsgUntimed(p.world.internal, p.ExportProfile())
	return mergeExports(profs)
}

// GlobalProfileRoot is GlobalProfile with the fold performed only on root:
// other ranks participate in the gather (collective) but return nil instead
// of computing a merged artifact nobody reads. The sweep executor keeps only
// rank 0's SweepResult, so the identical folds on ranks 1..P-1 were pure
// allocation churn — on the benchmark sweep they were the single largest
// allocation site after the workload's own tiles.
func (p *Profiler) GlobalProfileRoot(root int) *Profile {
	profs := mpi.GatherMsgUntimed(p.world.internal, p.ExportProfile())
	if p.rank != root {
		return nil
	}
	return mergeExports(profs)
}

// mergeExports folds gathered per-rank exports in comm-rank order: one clone
// then in-place merges.
func mergeExports(profs []*Profile) *Profile {
	out := profs[0].Clone()
	if out == nil {
		out = &Profile{SchemaVersion: ProfileSchemaVersion}
	}
	for _, o := range profs[1:] {
		out.merge(o, true)
	}
	return out
}

// registerChannel records a newly created communicator's channel and
// recursively builds aggregate channels (Figure 2, MPI_Comm_split).
func (p *Profiler) registerChannel(ch channel.Channel) {
	if _, ok := p.aggregates[ch.Hash()]; ok {
		return
	}
	p.aggregates[ch.Hash()] = ch
	// Combine with every known aggregate to grow the basis.
	for {
		grew := false
		for _, agg := range p.aggregates {
			comb, ok := channel.Combine(agg, ch)
			if !ok || agg.Contains(ch) {
				continue
			}
			h := comb.Hash()
			if _, exists := p.aggregates[h]; !exists {
				p.aggregates[h] = comb
				grew = true
			}
		}
		if !grew {
			break
		}
	}
}

// Aggregates returns the number of registered aggregate channels.
func (p *Profiler) Aggregates() int { return len(p.aggregates) }

// HasFullGridAggregate reports whether some registered aggregate spans the
// entire world as a cartesian basis.
func (p *Profiler) HasFullGridAggregate() bool {
	for _, agg := range p.aggregates {
		if agg.CoversWorld(p.psize) {
			return true
		}
	}
	return false
}

func (p *Profiler) String() string {
	return fmt.Sprintf("critter.Profiler{rank=%d, policy=%s, eps=%g, kernels=%d}",
		p.rank, p.opts.Policy, p.opts.Eps, p.touched)
}
