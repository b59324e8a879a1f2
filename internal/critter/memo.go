package critter

// Cross-config kernel memoization. A tuning sweep evaluates the same study
// configurations over and over — the reference profiler immediately before
// the selective one, every (policy, eps) sweep after the first, warm
// service jobs after cold ones — and each evaluation used to rebuild the
// exact same config-invariant state from scratch: the kernel-signature
// interner, every rank's Key→id cache, and the estimator's accumulator
// slabs. KernelMemo is the sweep executor's per-worker cache of that
// state. It is strictly observational: every byte of every result is
// identical with a memo attached or not, because the memo only changes
// *how fast* config-invariant facts are recomputed, never their values
// (ids never leave the process, and all result-bearing artifacts are
// rekeyed by Key).
//
// Three things are memoized:
//
//   - Per-configuration kernel tables. The first profiler to finish a
//     configuration publishes its interner (Profiler.Report), keyed by the
//     caller-supplied configuration key (StartConfigKeyed). Every later
//     profiler that starts the same configuration — the selective runs
//     after the reference run, and every run of the configuration in
//     later sweeps — adopts the published table plus an immutable
//     Key→id snapshot, so its steady-state intern path is a read-only map
//     hit: no table lock, no insert, no per-config cache rebuild. Ids
//     stay as compact as the configuration's active kernel set, keeping
//     the copy-on-write path-frequency snapshots small.
//
//   - Retired per-rank arenas. A profiler that will not be used again
//     (Profiler.Retire) donates its dense bookkeeping arrays, private
//     intern cache, and — for the built-in estimator — its Welford
//     accumulator slabs back to the memo; the next profiler built with
//     the same memo adopts them instead of growing fresh ones.
//
//   - Propagation-point predictability outcomes, cached per kernel id
//     inside each profiler (see predCache in profiler.go) and surfaced
//     through the memo's counters. The CI tolerance test is pure in
//     (model state, eps, path frequency) and monotone in the frequency
//     credit, so a converged signature's outcome is replayed without
//     re-deriving the confidence interval. Replayed skip decisions are
//     counted as "memoized kernels" in Report and the sweep stats.
//
// A KernelMemo is safe for concurrent use by every rank of the worlds it
// is threaded through. The sweep executor gives each worker goroutine its
// own memo (alongside its buffer-pool arena), so cross-worker contention
// on the memo never occurs; within a world the ranks share the memo's
// mutex, which is touched only at configuration boundaries. Published
// entries may be shared between memos (Entry, Share) — the executor hands
// a configuration's reference interner to every worker that reads the
// reference — which is safe because an entry's snapshots are immutable
// and its table locks its own writes.

import (
	"hash/fnv"
	"sync"

	"critter/internal/stats"
)

// KernelMemo caches config-invariant profiler state across configurations,
// profilers, and sweeps. The zero value is not usable; create one with
// NewKernelMemo and thread it through Options.Memo.
type KernelMemo struct {
	mu      sync.Mutex
	configs map[uint64]*MemoEntry
	arenas  []*memoArena

	// tableHits/tableMisses count StartConfigKeyed lookups (rank-0 only,
	// one per configuration start).
	tableHits   int64
	tableMisses int64
}

// MemoEntry is one published configuration: its shared interner plus
// immutable snapshots of the Key→id map and id→Key slice taken at publish
// time. The snapshots are read without locks; a signature interned after
// publication (only possible on a key collision or a nondeterministic
// workload) simply misses the snapshot and falls through to the table,
// which is safe for concurrent use. An entry is therefore shareable
// between memos (KernelMemo.Entry, KernelMemo.Share); it is opaque
// outside this package.
type MemoEntry struct {
	tab  *KernelTable
	idOf map[Key]uint32
	keys []Key
}

// memoArena is the recyclable per-rank state a retiring profiler donates:
// dense per-id tables (zeroed, length 0, capacity kept), the private
// intern cache (cleared), and the built-in estimator's accumulator slabs.
type memoArena struct {
	idOf           map[Key]uint32
	keys           []Key
	k              []kernelStats
	localFreq      []int64
	pathKernelTime []float64
	pred           []predCache
	counts         []int64
	slabs          [][]stats.Welford
}

// NewKernelMemo returns an empty memo.
func NewKernelMemo() *KernelMemo {
	return &KernelMemo{configs: make(map[uint64]*MemoEntry)}
}

// ConfigKey derives the key of one configuration of a named study: the
// memo key, and the configuration part of a run's noise epoch (RunKey).
// Any deterministic hash works — the memo is observationally invisible, so
// a collision only costs speed there, and two colliding configurations
// merely draw the same noise — but the key must include the study
// identity: one worker's memo may serve sweeps of several studies.
func ConfigKey(study string, config int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(study))
	var b [8]byte
	for i := range b {
		b[i] = byte(config >> (8 * i))
	}
	h.Write(b[:])
	return h.Sum64()
}

// lookup returns the published state for a configuration key, nil when the
// configuration has not completed anywhere yet.
func (m *KernelMemo) lookup(key uint64) *MemoEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	mc := m.configs[key]
	if mc != nil {
		m.tableHits++
	} else {
		m.tableMisses++
	}
	return mc
}

// publish records tab as the interner of the configuration identified by
// key. First publisher wins: the reference and selective profilers of one
// sweep both finish every configuration, and whichever reports first owns
// the published snapshot (their tables intern the same signature set, so
// the choice is invisible).
func (m *KernelMemo) publish(key uint64, tab *KernelTable) {
	m.mu.Lock()
	if _, ok := m.configs[key]; ok {
		m.mu.Unlock()
		return
	}
	// Reserve the slot before snapshotting so a racing publisher of the
	// same key does not duplicate the copy work, then fill it in. Filling
	// under the lock keeps lookup trivially safe; the snapshot itself is
	// lock-ordered after the table's own RWMutex, which is never held
	// while taking m.mu.
	ids, keys := func() (map[Key]uint32, []Key) {
		m.mu.Unlock()
		defer m.mu.Lock()
		return tab.snapshot()
	}()
	if _, ok := m.configs[key]; !ok {
		m.configs[key] = &MemoEntry{tab: tab, idOf: ids, keys: keys}
	}
	m.mu.Unlock()
}

// Entry returns the state published under key, nil when none. Unlike a
// profiler's lookup at StartConfigKeyed it counts as neither hit nor miss.
func (m *KernelMemo) Entry(key uint64) *MemoEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.configs[key]
}

// Share files e, published by another memo, under key, so this memo's next
// profiler to start the configuration adopts it instead of building a
// fresh interner. First publisher wins, as in publish; a nil e is ignored.
func (m *KernelMemo) Share(key uint64, e *MemoEntry) {
	if e == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.configs[key]; !ok {
		m.configs[key] = e
	}
}

// acquireArena pops a retired arena, nil when none is available.
func (m *KernelMemo) acquireArena() *memoArena {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := len(m.arenas); n > 0 {
		a := m.arenas[n-1]
		m.arenas[n-1] = nil
		m.arenas = m.arenas[:n-1]
		return a
	}
	return nil
}

// releaseArena files a retired profiler's arena for reuse. The donor has
// already zeroed the dense arrays and cleared the map (see
// Profiler.Retire), so adoption is O(1).
func (m *KernelMemo) releaseArena(a *memoArena) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.arenas = append(m.arenas, a)
}

// TableHits returns how many StartConfigKeyed lookups found a published
// configuration (and how many missed). Rank 0 performs one lookup per
// configuration start, so these count configurations, not ranks.
func (m *KernelMemo) TableHits() (hits, misses int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tableHits, m.tableMisses
}
