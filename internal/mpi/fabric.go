package mpi

// The typed message fabric: the sharded, allocation-lean core every
// communication path runs on. A World owns one fabric per payload type,
// created on first use; a fabric owns one mailbox per world rank (each with
// its own lock and condition variable) and a fixed set of collective-round
// shards. Point-to-point traffic therefore contends only on the destination
// mailbox and collectives only on their round's shard — there is no
// world-global lock — and a payload is stored as its concrete type end to
// end, so typed messages (the profiler's intMsg piggyback, Split's
// color/key records) never box through interface{}.
//
// Matching is per fabric: a message sent as type T is received as type T.
// SPMD symmetry makes this safe — peers issue the same operation with the
// same payload type on both sides — and the legacy *Any operations are thin
// wrappers over the fabric instantiated at T = any.

import (
	"math/bits"
	"reflect"
	"sync"
)

// fmsg is one in-flight message of a typed fabric.
type fmsg[T any] struct {
	ctx     uint64
	src     int // rank within the communicator
	tag     int
	payload T
	arrive  float64 // virtual time at which the payload is fully available
	// pooled marks a payload buffer owned by the world's buffer pool,
	// recyclable once the receiver has copied it out (data plane only).
	pooled bool
}

// fbox holds in-flight point-to-point messages destined to one world rank,
// guarded by its own lock so senders to different ranks never contend.
type fbox[T any] struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []fmsg[T]
}

// round coordinates one collective operation instance. Guarded by its
// shard's lock.
type round[T any] struct {
	arrived  int
	departed int
	maxT     float64
	payloads []T
	clocks   []float64
	done     bool
}

// roundKey identifies a collective round: the communicator's matching
// context and the per-rank sequence number of the operation on it.
type roundKey struct {
	ctx uint64
	seq uint64
}

// roundShardCount is the number of independently locked collective-round
// shards per fabric. Rounds hash to shards by context and sequence, so
// concurrent collectives on different communicators rarely share a lock.
const roundShardCount = 8

// roundShard is one independently locked slice of a fabric's collective
// state.
type roundShard[T any] struct {
	mu     sync.Mutex
	cond   *sync.Cond
	rounds map[roundKey]*round[T]
}

// fabric is the per-payload-type message substrate of one World.
type fabric[T any] struct {
	w      *World
	boxes  []fbox[T]
	shards [roundShardCount]roundShard[T]
}

// newFabric builds and wires a fabric for w, registering every condition
// variable with the world's abort machinery.
func newFabric[T any](w *World) *fabric[T] {
	f := &fabric[T]{w: w, boxes: make([]fbox[T], w.size)}
	wakers := make([]waker, 0, w.size+roundShardCount)
	for i := range f.boxes {
		b := &f.boxes[i]
		b.cond = sync.NewCond(&b.mu)
		wakers = append(wakers, waker{mu: &b.mu, cond: b.cond})
	}
	for i := range f.shards {
		s := &f.shards[i]
		s.cond = sync.NewCond(&s.mu)
		s.rounds = make(map[roundKey]*round[T])
		wakers = append(wakers, waker{mu: &s.mu, cond: s.cond})
	}
	w.registerWakers(wakers)
	return f
}

// fabricOf returns w's fabric for payload type T, creating it on first use.
// The steady state is one lock-free map load; creation is serialized by
// fabricMu so exactly one fabric per type is built and registered with the
// abort machinery (a lost LoadOrStore race would leak the loser's waker
// registrations).
func fabricOf[T any](w *World) *fabric[T] {
	key := reflect.TypeFor[T]()
	if f, ok := w.fabrics.Load(key); ok {
		return f.(*fabric[T])
	}
	w.fabricMu.Lock()
	defer w.fabricMu.Unlock()
	if f, ok := w.fabrics.Load(key); ok {
		return f.(*fabric[T])
	}
	f := newFabric[T](w)
	w.fabrics.Store(key, f)
	return f
}

// shardOf maps a round key to its shard.
func (f *fabric[T]) shardOf(key roundKey) *roundShard[T] {
	h := key.ctx*0x9e3779b97f4a7c15 + key.seq
	return &f.shards[(h>>32)%roundShardCount]
}

// post delivers m to world rank dest's mailbox on this fabric.
func (f *fabric[T]) post(dest int, m fmsg[T]) {
	box := &f.boxes[dest]
	box.mu.Lock()
	defer box.mu.Unlock()
	f.w.checkAbort()
	box.queue = append(box.queue, m)
	box.cond.Broadcast()
	if d := f.w.des; d != nil {
		d.ready(dest)
	}
}

// match blocks until a message with (ctx, src, tag) is present in the
// calling rank's mailbox on this fabric and removes it (FIFO among equals).
func (f *fabric[T]) match(c *Comm, src, tag int) fmsg[T] {
	box := &f.boxes[c.state.worldRank]
	box.mu.Lock()
	defer box.mu.Unlock()
	for {
		f.w.checkAbort()
		for i := range box.queue {
			m := &box.queue[i]
			if m.ctx == c.ctx && m.src == src && m.tag == tag {
				out := *m
				box.queue = append(box.queue[:i], box.queue[i+1:]...)
				return out
			}
		}
		if d := f.w.des; d != nil {
			d.park(c.state.worldRank, &box.mu)
		} else {
			box.cond.Wait()
		}
	}
}

// gatherRound synchronizes all communicator members at a collective point
// on this fabric, depositing payload and returning every member's payload
// (indexed by comm rank), the maximum participant clock, and the round's
// sequence number. Payloads are shared across ranks after the round: treat
// them as immutable.
func (f *fabric[T]) gatherRound(c *Comm, payload T) ([]T, float64, uint64) {
	seq := c.collSeq
	c.collSeq++
	c.syncEpoch(seq)
	key := roundKey{c.ctx, seq}
	sh := f.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f.w.checkAbort()
	rd, ok := sh.rounds[key]
	if !ok {
		rd = &round[T]{
			payloads: make([]T, len(c.group)),
			clocks:   make([]float64, len(c.group)),
		}
		sh.rounds[key] = rd
	}
	rd.payloads[c.rank] = payload
	rd.clocks[c.rank] = c.state.clock.Now()
	rd.arrived++
	if rd.arrived == len(c.group) {
		maxT := rd.clocks[0]
		for _, t := range rd.clocks[1:] {
			if t > maxT {
				maxT = t
			}
		}
		rd.maxT = maxT
		rd.done = true
		sh.cond.Broadcast()
		if d := f.w.des; d != nil {
			// Every other member has deposited and parked on this round;
			// route their wakeups explicitly.
			for _, wr := range c.group {
				if wr != c.state.worldRank {
					d.ready(wr)
				}
			}
		}
	}
	for !rd.done {
		f.w.checkAbort()
		if d := f.w.des; d != nil {
			d.park(c.state.worldRank, &sh.mu)
		} else {
			sh.cond.Wait()
		}
	}
	f.w.checkAbort()
	payloads, maxT := rd.payloads, rd.maxT
	rd.departed++
	if rd.departed == len(c.group) {
		delete(sh.rounds, key)
	}
	return payloads, maxT, seq
}

// Lane is a pre-resolved handle on a world's fabric for one payload type:
// the per-operation type-to-fabric lookup is paid once at construction
// (LaneOf) instead of on every message. High-rate typed traffic — the
// profiler's per-operation piggyback messages — should hold a Lane; the
// package-level generic functions resolve the fabric per call and suit
// construction-time or low-rate use.
type Lane[T any] struct {
	f *fabric[T]
}

// LaneOf resolves (creating on first use) w's lane for payload type T.
func LaneOf[T any](w *World) Lane[T] { return Lane[T]{f: fabricOf[T](w)} }

// Send transmits a typed payload to dest under tag without advancing any
// virtual clock. It exists for internal piggyback traffic (the profiler's
// protocol messages), whose overhead the paper treats as negligible. The
// payload is not copied; treat it as immutable after sending.
func (l Lane[T]) Send(c *Comm, dest, tag int, payload T) {
	c.checkPeer(dest)
	l.f.post(c.group[dest], fmsg[T]{
		ctx:     c.ctx,
		src:     c.rank,
		tag:     tag,
		payload: payload,
		arrive:  c.state.clock.Now(),
	})
}

// Recv blocks for a typed payload from src under tag. Clocks are not
// advanced.
func (l Lane[T]) Recv(c *Comm, src, tag int) T {
	c.checkPeer(src)
	return l.f.match(c, src, tag).payload
}

// Exchange sends payload to peer and receives the peer's payload, both
// untimed. Both sides must call it. It is the runtime's analogue of the
// internal PMPI_Sendrecv in Figure 2 of the paper.
func (l Lane[T]) Exchange(c *Comm, peer, tag int, payload T) T {
	l.Send(c, peer, tag, payload)
	return l.Recv(c, peer, tag)
}

// Allreduce folds every member's typed payload with merge (in comm-rank
// order) and returns the result to all members. Clocks are synchronized to
// the maximum participant time but no transfer cost is charged: this is the
// profiler's internal coordination primitive (the PMPI_Allreduce with a
// custom operator in Figure 2 of the paper). merge must be pure; the result
// is shared across ranks and must be treated as immutable.
func (l Lane[T]) Allreduce(c *Comm, payload T, merge func(a, b T) T) T {
	payloads, maxT, _ := l.f.gatherRound(c, payload)
	acc := payloads[0]
	for _, p := range payloads[1:] {
		acc = merge(acc, p)
	}
	c.state.clock.AdvanceTo(maxT)
	return acc
}

// GatherUntimed returns every member's typed payload indexed by comm rank,
// synchronizing clocks to the max participant time without charging cost.
// Used by the profiler for aggregate-channel construction and shared
// interner adoption.
func (l Lane[T]) GatherUntimed(c *Comm, payload T) []T {
	payloads, maxT, _ := l.f.gatherRound(c, payload)
	c.state.clock.AdvanceTo(maxT)
	return payloads
}

// SendMsg transmits a typed payload to dest under tag, untimed. Per-call
// fabric resolution; hot paths should hold a Lane.
func SendMsg[T any](c *Comm, dest, tag int, payload T) {
	LaneOf[T](c.w).Send(c, dest, tag, payload)
}

// RecvMsg blocks for a typed payload from src under tag. Clocks are not
// advanced.
func RecvMsg[T any](c *Comm, src, tag int) T {
	return LaneOf[T](c.w).Recv(c, src, tag)
}

// ExchangeMsg sends payload to peer and receives the peer's payload, both
// untimed. Both sides must call it.
func ExchangeMsg[T any](c *Comm, peer, tag int, payload T) T {
	return LaneOf[T](c.w).Exchange(c, peer, tag, payload)
}

// AllreduceMsg folds every member's typed payload with merge in comm-rank
// order, untimed. See Lane.Allreduce.
func AllreduceMsg[T any](c *Comm, payload T, merge func(a, b T) T) T {
	return LaneOf[T](c.w).Allreduce(c, payload, merge)
}

// GatherMsgUntimed returns every member's typed payload indexed by comm
// rank, synchronizing clocks without charging cost. See Lane.GatherUntimed.
func GatherMsgUntimed[T any](c *Comm, payload T) []T {
	return LaneOf[T](c.w).GatherUntimed(c, payload)
}

// SendAny transmits an arbitrary payload to dest under tag without
// advancing any virtual clock. Thin wrapper over the typed fabric at
// T = any, kept for call sites without a concrete payload type.
func (c *Comm) SendAny(dest, tag int, payload any) { SendMsg(c, dest, tag, payload) }

// RecvAny blocks for an internal payload from src under tag. Clocks are not
// advanced. Thin wrapper over the typed fabric at T = any.
func (c *Comm) RecvAny(src, tag int) any { return RecvMsg[any](c, src, tag) }

// ExchangeAny sends payload to peer and receives the peer's payload, both
// untimed. Thin wrapper over the typed fabric at T = any.
func (c *Comm) ExchangeAny(peer, tag int, payload any) any {
	return ExchangeMsg[any](c, peer, tag, payload)
}

// AllreduceAny folds every member's payload with merge in comm-rank order.
// Thin wrapper over the typed fabric at T = any.
func (c *Comm) AllreduceAny(payload any, merge func(a, b any) any) any {
	return AllreduceMsg(c, payload, merge)
}

// GatherAnyUntimed returns every member's payload indexed by comm rank,
// synchronizing clocks without charging cost. Thin wrapper over the typed
// fabric at T = any.
func (c *Comm) GatherAnyUntimed(payload any) []any {
	return GatherMsgUntimed(c, payload)
}

// BufPool recycles data-plane payload buffers ([]float64) across messages.
// Buffers are filed by power-of-two size class; Get and Put are safe for
// concurrent use (each class holds its freelist under its own mutex, so a
// put never allocates — unlike sync.Pool, whose interface conversion would
// box every slice header). One pool may serve many worlds over its lifetime
// — the sweep executor threads one per worker so consecutive sweeps reuse
// each other's buffers instead of reallocating the same tile-sized payloads
// thousands of times. It lives here with the rest of the data plane's
// locked state: fabric.go and world.go are the only mpi files that may hold
// raw synchronization primitives (enforced by critterlint's fabriclock).
type BufPool struct {
	classes [31]bufClass
}

// bufClass is one size class's freelist.
type bufClass struct {
	mu   sync.Mutex
	free [][]float64
}

// maxPooledPerClass bounds each class's freelist; beyond it buffers fall to
// the garbage collector (a world's in-flight message population is small,
// so the bound only matters after pathological bursts).
const maxPooledPerClass = 256

// NewBufPool returns an empty pool.
func NewBufPool() *BufPool { return &BufPool{} }

// sizeClass returns the smallest c with n <= 1<<c.
func sizeClass(n int) int { return bits.Len(uint(n - 1)) }

// Get returns a length-n buffer with unspecified contents.
func (p *BufPool) Get(n int) []float64 {
	if n == 0 {
		return nil
	}
	c := sizeClass(n)
	if c >= len(p.classes) {
		return make([]float64, n)
	}
	cl := &p.classes[c]
	cl.mu.Lock()
	if k := len(cl.free); k > 0 {
		b := cl.free[k-1]
		cl.free = cl.free[:k-1]
		cl.mu.Unlock()
		return b[:n]
	}
	cl.mu.Unlock()
	return make([]float64, n, 1<<c)
}

// Put recycles b. The buffer is filed under the largest power-of-two class
// its capacity fully covers, so a later Get never reslices past capacity.
func (p *BufPool) Put(b []float64) {
	if p == nil || cap(b) == 0 {
		return
	}
	c := bits.Len(uint(cap(b))) - 1
	if c >= len(p.classes) {
		return
	}
	cl := &p.classes[c]
	cl.mu.Lock()
	if len(cl.free) < maxPooledPerClass {
		cl.free = append(cl.free, b[:0])
	}
	cl.mu.Unlock()
}
