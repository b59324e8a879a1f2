package mpi

import (
	"fmt"
	"math"

	"critter/internal/sim"
)

// ReduceOp is an elementwise reduction operator for the data collectives.
type ReduceOp int

// Supported reduction operators.
const (
	OpSum ReduceOp = iota
	OpMax
	OpMin
)

func (op ReduceOp) apply(acc, x float64) float64 {
	switch op {
	case OpSum:
		return acc + x
	case OpMax:
		return math.Max(acc, x)
	case OpMin:
		return math.Min(acc, x)
	}
	panic(fmt.Sprintf("mpi: unknown reduce op %d", op))
}

// gatherData synchronizes all communicator members at a data collective
// point, depositing payload and returning every member's payload (indexed
// by comm rank), the maximum participant clock, and the round's sequence
// number. Payloads are shared across ranks after the round: treat them as
// immutable.
func (c *Comm) gatherData(payload []float64) ([][]float64, float64, uint64) {
	return c.w.dataFab.gatherRound(c, payload)
}

// collKind distinguishes cost shapes of the collectives.
type collKind int

const (
	collSync collKind = iota // barrier: latency only
	collTree                 // bcast/reduce/allreduce: steps*(alpha+beta*n)
	collVol                  // (all)gather/scatter: steps*alpha + beta*total
)

// collCost returns the noiseless virtual duration of a collective moving
// nbytes (per-rank payload for tree ops, total volume for vol ops) among p
// ranks.
func (c *Comm) collCost(kind collKind, nbytes float64, p int) float64 {
	if p <= 1 {
		return 0
	}
	m := c.w.machine
	steps := 1.0
	if m.CollectiveTree {
		steps = math.Ceil(math.Log2(float64(p)))
	}
	switch kind {
	case collSync:
		return steps * m.Alpha
	case collTree:
		return steps * (m.Alpha + m.Beta*nbytes)
	case collVol:
		return steps*m.Alpha + m.Beta*nbytes
	}
	panic("mpi: unknown collective kind")
}

// finishColl advances the rank's clock to the synchronized completion time
// of a collective round: max participant clock plus the modeled cost with a
// per-round shared noise factor (so all members complete together). The
// factor is keyed by the noise epoch, the communicator's noise identity and
// the round's index within the epoch — never by the absolute round count,
// which depends on everything the world ran before.
func (c *Comm) finishColl(maxT float64, kind collKind, nbytes float64, seq uint64) float64 {
	cost := c.collCost(kind, nbytes, len(c.group))
	m := c.w.machine
	if m.NoiseSigma > 0 {
		rng := sim.NewRNG(sim.Mix(c.state.epoch, c.noise, c.epochRound(seq), 0xc0))
		cost *= m.Noise(rng)
	}
	before := c.state.clock.Now()
	c.state.clock.AdvanceTo(maxT + cost)
	return c.state.clock.Now() - before
}

// Barrier blocks until all members arrive and synchronizes virtual clocks.
func (c *Comm) Barrier() float64 {
	_, maxT, seq := c.gatherData(nil)
	return c.finishColl(maxT, collSync, 0, seq)
}

// Bcast copies root's buf into every member's buf. All members must pass
// equal-length buffers.
func (c *Comm) Bcast(root int, buf []float64) float64 {
	c.checkPeer(root)
	var payload []float64
	if c.rank == root {
		payload = append([]float64(nil), buf...)
	}
	payloads, maxT, seq := c.gatherData(payload)
	src := payloads[root]
	if len(src) != len(buf) {
		panic(fmt.Sprintf("mpi: bcast length mismatch: root has %d, rank %d has %d", len(src), c.rank, len(buf)))
	}
	if c.rank != root {
		copy(buf, src)
	}
	return c.finishColl(maxT, collTree, float64(8*len(buf)), seq)
}

// Reduce combines every member's in elementwise with op into root's out.
// out is only written at root and must not alias in there.
func (c *Comm) Reduce(root int, in, out []float64, op ReduceOp) float64 {
	c.checkPeer(root)
	payloads, maxT, seq := c.gatherData(append([]float64(nil), in...))
	if c.rank == root {
		reduceInto(out, payloads, op)
	}
	return c.finishColl(maxT, collTree, float64(8*len(in)), seq)
}

// Allreduce combines every member's in elementwise with op into every
// member's out.
func (c *Comm) Allreduce(in, out []float64, op ReduceOp) float64 {
	payloads, maxT, seq := c.gatherData(append([]float64(nil), in...))
	reduceInto(out, payloads, op)
	return c.finishColl(maxT, collTree, float64(8*len(in)), seq)
}

func reduceInto(out []float64, payloads [][]float64, op ReduceOp) {
	first := payloads[0]
	if len(out) != len(first) {
		panic(fmt.Sprintf("mpi: reduce length mismatch: out %d, in %d", len(out), len(first)))
	}
	copy(out, first)
	for _, v := range payloads[1:] {
		for i, x := range v {
			out[i] = op.apply(out[i], x)
		}
	}
}

// Allgather concatenates every member's in (all of equal length) into out in
// comm-rank order; len(out) must be len(in)*Size().
func (c *Comm) Allgather(in, out []float64) float64 {
	payloads, maxT, seq := c.gatherData(append([]float64(nil), in...))
	c.concatInto(out, payloads, len(in))
	return c.finishColl(maxT, collVol, float64(8*len(in)*(len(c.group)-1)), seq)
}

// Gather concatenates every member's in into root's out.
func (c *Comm) Gather(root int, in, out []float64) float64 {
	c.checkPeer(root)
	payloads, maxT, seq := c.gatherData(append([]float64(nil), in...))
	if c.rank == root {
		c.concatInto(out, payloads, len(in))
	}
	return c.finishColl(maxT, collVol, float64(8*len(in)*(len(c.group)-1)), seq)
}

// Scatter splits root's in into Size() equal segments and delivers the i-th
// segment to comm rank i's out.
func (c *Comm) Scatter(root int, in, out []float64) float64 {
	c.checkPeer(root)
	var payload []float64
	if c.rank == root {
		payload = append([]float64(nil), in...)
	}
	payloads, maxT, seq := c.gatherData(payload)
	full := payloads[root]
	n := len(out)
	if n*len(c.group) != len(full) {
		panic(fmt.Sprintf("mpi: scatter length mismatch: in %d, out %d x %d ranks", len(full), n, len(c.group)))
	}
	copy(out, full[c.rank*n:(c.rank+1)*n])
	return c.finishColl(maxT, collVol, float64(8*n*(len(c.group)-1)), seq)
}

func (c *Comm) concatInto(out []float64, payloads [][]float64, n int) {
	if len(out) != n*len(c.group) {
		panic(fmt.Sprintf("mpi: gather length mismatch: out %d, want %d", len(out), n*len(c.group)))
	}
	for r, v := range payloads {
		if len(v) != n {
			panic(fmt.Sprintf("mpi: gather ragged input: rank %d has %d, want %d", r, len(v), n))
		}
		copy(out[r*n:(r+1)*n], v)
	}
}

// AllreduceUntimed combines every member's in elementwise with op into
// every member's out, synchronizing clocks to the maximum participant time
// without charging transfer cost. Used for profiler bookkeeping reductions
// whose overhead the paper treats as negligible.
func (c *Comm) AllreduceUntimed(in, out []float64, op ReduceOp) {
	payloads, maxT, _ := c.gatherData(append([]float64(nil), in...))
	reduceInto(out, payloads, op)
	c.state.clock.AdvanceTo(maxT)
}
