package mpi

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"critter/internal/sim"
)

func quietMachine() sim.Machine {
	m := sim.DefaultMachine()
	m.NoiseSigma = 0
	return m
}

func run(t *testing.T, p int, body func(c *Comm)) {
	t.Helper()
	w := NewWorld(p, quietMachine(), 1)
	if err := w.Run(body); err != nil {
		t.Fatalf("world run: %v", err)
	}
}

func TestWorldSizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for size 0")
		}
	}()
	NewWorld(0, quietMachine(), 1)
}

func TestRanksAndSize(t *testing.T) {
	seen := make([]bool, 8)
	var mu sync.Mutex
	run(t, 8, func(c *Comm) {
		if c.Size() != 8 || c.WorldSize() != 8 {
			t.Errorf("size = %d/%d, want 8", c.Size(), c.WorldSize())
		}
		if c.Rank() != c.WorldRank() {
			t.Errorf("world comm rank mismatch: %d vs %d", c.Rank(), c.WorldRank())
		}
		mu.Lock()
		seen[c.Rank()] = true
		mu.Unlock()
	})
	for r, ok := range seen {
		if !ok {
			t.Errorf("rank %d never ran", r)
		}
	}
}

func TestSendRecvValue(t *testing.T) {
	run(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{1, 2, 3})
		} else {
			buf := make([]float64, 3)
			c.Recv(0, 7, buf)
			if buf[0] != 1 || buf[1] != 2 || buf[2] != 3 {
				t.Errorf("recv got %v", buf)
			}
		}
	})
}

func TestSendBufferReuseSafe(t *testing.T) {
	run(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			buf := []float64{42}
			c.Send(1, 0, buf)
			buf[0] = -1 // must not affect the in-flight message
			c.Send(1, 1, buf)
		} else {
			b := make([]float64, 1)
			c.Recv(0, 0, b)
			if b[0] != 42 {
				t.Errorf("first message corrupted by sender reuse: %v", b[0])
			}
			c.Recv(0, 1, b)
			if b[0] != -1 {
				t.Errorf("second message wrong: %v", b[0])
			}
		}
	})
}

func TestTagMatching(t *testing.T) {
	run(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 5, []float64{5})
			c.Send(1, 9, []float64{9})
		} else {
			b := make([]float64, 1)
			// Receive out of send order by tag.
			c.Recv(0, 9, b)
			if b[0] != 9 {
				t.Errorf("tag 9 got %v", b[0])
			}
			c.Recv(0, 5, b)
			if b[0] != 5 {
				t.Errorf("tag 5 got %v", b[0])
			}
		}
	})
}

func TestFIFOAmongEqualTags(t *testing.T) {
	run(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 10; i++ {
				c.Send(1, 3, []float64{float64(i)})
			}
		} else {
			b := make([]float64, 1)
			for i := 0; i < 10; i++ {
				c.Recv(0, 3, b)
				if b[0] != float64(i) {
					t.Errorf("message %d out of order: got %v", i, b[0])
				}
			}
		}
	})
}

func TestRecvLengthMismatchPanics(t *testing.T) {
	w := NewWorld(2, quietMachine(), 1)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, []float64{1, 2})
		} else {
			c.Recv(0, 0, make([]float64, 3))
		}
	})
	if err == nil {
		t.Fatal("expected error from length mismatch")
	}
}

func TestAbortUnblocksPeers(t *testing.T) {
	w := NewWorld(3, quietMachine(), 1)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			panic("deliberate failure")
		}
		// These would deadlock forever without abort propagation.
		c.Recv(0, 99, make([]float64, 1))
	})
	if err == nil {
		t.Fatal("expected error from aborted world")
	}
}

func TestSendrecvNoDeadlock(t *testing.T) {
	run(t, 2, func(c *Comm) {
		peer := 1 - c.Rank()
		out := []float64{float64(c.Rank())}
		in := make([]float64, 1)
		c.Sendrecv(peer, 0, out, peer, 0, in)
		if in[0] != float64(peer) {
			t.Errorf("sendrecv got %v, want %d", in[0], peer)
		}
	})
}

func TestIsendIrecvWait(t *testing.T) {
	run(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			req := c.Isend(1, 4, []float64{3.14})
			if !req.Done() {
				t.Error("isend request should be complete immediately (buffered)")
			}
			req.Wait()
		} else {
			buf := make([]float64, 1)
			req := c.Irecv(0, 4, buf)
			if req.Done() {
				t.Error("irecv should not be done before Wait")
			}
			req.Wait()
			if buf[0] != 3.14 {
				t.Errorf("irecv got %v", buf[0])
			}
		}
	})
}

func TestWaitall(t *testing.T) {
	run(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			var reqs []*Request
			for i := 0; i < 5; i++ {
				reqs = append(reqs, c.Isend(1, i, []float64{float64(i * i)}))
			}
			Waitall(reqs)
		} else {
			bufs := make([][]float64, 5)
			var reqs []*Request
			for i := 0; i < 5; i++ {
				bufs[i] = make([]float64, 1)
				reqs = append(reqs, c.Irecv(0, i, bufs[i]))
			}
			Waitall(reqs)
			for i := 0; i < 5; i++ {
				if bufs[i][0] != float64(i*i) {
					t.Errorf("req %d got %v", i, bufs[i][0])
				}
			}
		}
	})
}

func TestBcast(t *testing.T) {
	run(t, 5, func(c *Comm) {
		buf := make([]float64, 4)
		if c.Rank() == 2 {
			for i := range buf {
				buf[i] = float64(10 + i)
			}
		}
		c.Bcast(2, buf)
		for i := range buf {
			if buf[i] != float64(10+i) {
				t.Errorf("rank %d bcast[%d] = %v", c.Rank(), i, buf[i])
			}
		}
	})
}

func TestReduceAndAllreduce(t *testing.T) {
	run(t, 4, func(c *Comm) {
		in := []float64{float64(c.Rank()), 1}
		out := make([]float64, 2)
		c.Reduce(0, in, out, OpSum)
		if c.Rank() == 0 {
			if out[0] != 6 || out[1] != 4 { // 0+1+2+3, 1*4
				t.Errorf("reduce got %v", out)
			}
		}
		all := make([]float64, 2)
		c.Allreduce(in, all, OpMax)
		if all[0] != 3 || all[1] != 1 {
			t.Errorf("allreduce max got %v", all)
		}
		c.Allreduce(in, all, OpMin)
		if all[0] != 0 || all[1] != 1 {
			t.Errorf("allreduce min got %v", all)
		}
	})
}

func TestAllgatherGatherScatter(t *testing.T) {
	run(t, 4, func(c *Comm) {
		in := []float64{float64(c.Rank() * 100), float64(c.Rank()*100 + 1)}
		out := make([]float64, 8)
		c.Allgather(in, out)
		for r := 0; r < 4; r++ {
			if out[2*r] != float64(r*100) || out[2*r+1] != float64(r*100+1) {
				t.Errorf("allgather segment %d wrong: %v", r, out[2*r:2*r+2])
			}
		}
		got := make([]float64, 8)
		c.Gather(3, in, got)
		if c.Rank() == 3 {
			for r := 0; r < 4; r++ {
				if got[2*r] != float64(r*100) {
					t.Errorf("gather segment %d wrong", r)
				}
			}
		}
		var full []float64
		if c.Rank() == 1 {
			full = make([]float64, 8)
			for i := range full {
				full[i] = float64(i)
			}
		}
		seg := make([]float64, 2)
		c.Scatter(1, full, seg)
		if seg[0] != float64(2*c.Rank()) || seg[1] != float64(2*c.Rank()+1) {
			t.Errorf("scatter rank %d got %v", c.Rank(), seg)
		}
	})
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	run(t, 4, func(c *Comm) {
		// Skew the clocks, then barrier: all clocks must agree afterwards.
		c.AdvanceClock(float64(c.Rank()) * 0.25)
		c.Barrier()
		after := c.Clock()
		all := make([]float64, 1)
		c.Allreduce([]float64{after}, all, OpMax)
		if math.Abs(all[0]-after) > 1e-12 {
			t.Errorf("rank %d clock %g differs from max %g after barrier", c.Rank(), after, all[0])
		}
		if after < 0.75 {
			t.Errorf("barrier completed at %g, before slowest rank's 0.75", after)
		}
	})
}

func TestVirtualTimeCausality(t *testing.T) {
	run(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.AdvanceClock(1.0) // sender is busy until t=1
			c.Send(1, 0, make([]float64, 1000))
		} else {
			before := c.Clock()
			if before != 0 {
				t.Errorf("receiver should start at 0, got %g", before)
			}
			c.Recv(0, 0, make([]float64, 1000))
			// Message cannot arrive before the sender sent it at t >= 1.
			if c.Clock() < 1.0 {
				t.Errorf("receiver clock %g violates causality (send at t>=1)", c.Clock())
			}
		}
	})
}

func TestDeterministicVirtualTime(t *testing.T) {
	final := func() []float64 {
		m := sim.DefaultMachine() // with noise
		w := NewWorld(4, m, 12345)
		out := make([]float64, 4)
		var mu sync.Mutex
		if err := w.Run(func(c *Comm) {
			buf := make([]float64, 256)
			for iter := 0; iter < 10; iter++ {
				c.Bcast(iter%4, buf)
				peer := (c.Rank() + 1) % 4
				prev := (c.Rank() + 3) % 4
				c.Sendrecv(peer, iter, buf[:16], prev, iter, buf[:16])
				c.Compute(1e5)
			}
			mu.Lock()
			out[c.Rank()] = c.Clock()
			mu.Unlock()
		}); err != nil {
			t.Fatalf("run: %v", err)
		}
		return out
	}
	a, b := final(), final()
	for r := range a {
		if a[r] != b[r] {
			t.Errorf("rank %d virtual time not deterministic: %g vs %g", r, a[r], b[r])
		}
	}
}

// TestBeginEpochIsolatesNoise checks that a noise epoch makes a run's
// timings positional: the same program after BeginEpoch yields the same
// per-rank clocks whether or not other noisy work — compute, messages,
// collectives, communicator splits — ran before the epoch in that world.
func TestBeginEpochIsolatesNoise(t *testing.T) {
	work := func(c *Comm, iters int) {
		buf := make([]float64, 64)
		for iter := 0; iter < iters; iter++ {
			sub := c.Split(c.Rank()%2, c.Rank())
			sub.Allreduce(buf, buf, OpSum)
			c.Bcast(iter%4, buf)
			peer, prev := (c.Rank()+1)%4, (c.Rank()+3)%4
			c.Sendrecv(peer, iter, buf[:8], prev, iter, buf[:8])
			c.Compute(1e5)
		}
	}
	final := func(warmup int) []float64 {
		w := NewWorld(4, sim.DefaultMachine(), 99)
		out := make([]float64, 4)
		var mu sync.Mutex
		if err := w.Run(func(c *Comm) {
			work(c, warmup)
			c.Barrier()
			c.BeginEpoch(7)
			c.ResetClock()
			work(c, 5)
			mu.Lock()
			out[c.Rank()] = c.Clock()
			mu.Unlock()
		}); err != nil {
			t.Fatalf("run: %v", err)
		}
		return out
	}
	fresh, after := final(0), final(3)
	for r := range fresh {
		if fresh[r] != after[r] {
			t.Errorf("rank %d: epoch run after other work took %g, in a fresh world %g", r, after[r], fresh[r])
		}
	}
}

func TestSplitRowsAndCols(t *testing.T) {
	// 2x3 grid: color by row, key by col.
	run(t, 6, func(c *Comm) {
		row, col := c.Rank()/3, c.Rank()%3
		rowComm := c.Split(row, col)
		if rowComm.Size() != 3 {
			t.Errorf("row comm size %d, want 3", rowComm.Size())
		}
		if rowComm.Rank() != col {
			t.Errorf("row comm rank %d, want %d", rowComm.Rank(), col)
		}
		// Row communicator group = consecutive world ranks.
		s, ok := rowComm.GroupStride()
		if !ok || s.Stride != 1 || s.Offset != row*3 {
			t.Errorf("row comm stride = %+v ok=%v", s, ok)
		}
		colComm := c.Split(col, row)
		if colComm.Size() != 2 || colComm.Rank() != row {
			t.Errorf("col comm size/rank = %d/%d", colComm.Size(), colComm.Rank())
		}
		s, ok = colComm.GroupStride()
		if !ok || s.Stride != 3 || s.Offset != col {
			t.Errorf("col comm stride = %+v ok=%v", s, ok)
		}
		// Communicate within the split comms to verify isolation.
		sum := make([]float64, 1)
		rowComm.Allreduce([]float64{float64(c.Rank())}, sum, OpSum)
		want := float64(row*3 + row*3 + 1 + row*3 + 2)
		if sum[0] != want {
			t.Errorf("row allreduce got %v want %v", sum[0], want)
		}
	})
}

func TestSplitUndefined(t *testing.T) {
	run(t, 4, func(c *Comm) {
		color := 0
		if c.Rank()%2 == 1 {
			color = -1
		}
		nc := c.Split(color, c.Rank())
		if c.Rank()%2 == 1 {
			if nc != nil {
				t.Error("negative color should yield nil comm")
			}
			return
		}
		if nc.Size() != 2 {
			t.Errorf("split size %d, want 2", nc.Size())
		}
	})
}

func TestDupIsolation(t *testing.T) {
	run(t, 2, func(c *Comm) {
		d := c.Dup()
		if c.Rank() == 0 {
			c.Send(1, 0, []float64{1})
			d.Send(1, 0, []float64{2})
		} else {
			b := make([]float64, 1)
			// Receive on dup first: must get the dup message, not the
			// world message with the same (src, tag).
			d.Recv(0, 0, b)
			if b[0] != 2 {
				t.Errorf("dup recv got %v, want 2", b[0])
			}
			c.Recv(0, 0, b)
			if b[0] != 1 {
				t.Errorf("world recv got %v, want 1", b[0])
			}
		}
	})
}

func TestAllreduceAny(t *testing.T) {
	run(t, 4, func(c *Comm) {
		type profile struct{ maxT float64 }
		res := c.AllreduceAny(profile{float64(c.Rank())}, func(a, b any) any {
			pa, pb := a.(profile), b.(profile)
			if pb.maxT > pa.maxT {
				return pb
			}
			return pa
		})
		if res.(profile).maxT != 3 {
			t.Errorf("allreduce-any got %v, want 3", res)
		}
	})
}

func TestGatherAnyUntimed(t *testing.T) {
	run(t, 3, func(c *Comm) {
		vals := c.GatherAnyUntimed(c.Rank() * 11)
		for r, v := range vals {
			if v.(int) != r*11 {
				t.Errorf("gathered[%d] = %v", r, v)
			}
		}
	})
}

func TestExchangeAny(t *testing.T) {
	run(t, 2, func(c *Comm) {
		peer := 1 - c.Rank()
		got := c.ExchangeAny(peer, 0, fmt.Sprintf("from-%d", c.Rank()))
		want := fmt.Sprintf("from-%d", peer)
		if got.(string) != want {
			t.Errorf("exchange got %q want %q", got, want)
		}
	})
}

func TestGroupStrideNonUniform(t *testing.T) {
	run(t, 4, func(c *Comm) {
		// Group {0,1,3} is not an arithmetic progression.
		color := 0
		if c.Rank() == 2 {
			color = 1
		}
		nc := c.Split(color, c.Rank())
		if c.Rank() == 2 {
			return
		}
		if _, ok := nc.GroupStride(); ok {
			t.Error("non-uniform group should not report a stride")
		}
	})
}

func TestComputeAdvancesClock(t *testing.T) {
	run(t, 1, func(c *Comm) {
		before := c.Clock()
		dt := c.Compute(1e6)
		if dt <= 0 {
			t.Errorf("compute duration %g", dt)
		}
		if c.Clock()-before != dt {
			t.Errorf("clock advance %g != returned %g", c.Clock()-before, dt)
		}
	})
}

func TestCollectiveCostGrowsWithSize(t *testing.T) {
	// Time a bcast of n bytes vs 100n bytes: bigger must take longer.
	duration := func(n int) float64 {
		w := NewWorld(4, quietMachine(), 1)
		var d float64
		var mu sync.Mutex
		if err := w.Run(func(c *Comm) {
			buf := make([]float64, n)
			dt := c.Bcast(0, buf)
			if c.Rank() == 0 {
				mu.Lock()
				d = dt
				mu.Unlock()
			}
		}); err != nil {
			t.Fatal(err)
		}
		return d
	}
	small, large := duration(10), duration(100000)
	if large <= small {
		t.Errorf("bcast of 100000 words (%g) not slower than 10 words (%g)", large, small)
	}
}

func TestManyRanksStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	run(t, 64, func(c *Comm) {
		sum := make([]float64, 1)
		for iter := 0; iter < 20; iter++ {
			c.Allreduce([]float64{1}, sum, OpSum)
			if sum[0] != 64 {
				t.Errorf("allreduce got %v", sum[0])
			}
			peer := (c.Rank() + 1) % 64
			prev := (c.Rank() + 63) % 64
			out := []float64{float64(c.Rank())}
			in := make([]float64, 1)
			c.Sendrecv(peer, iter, out, prev, iter, in)
			if in[0] != float64(prev) {
				t.Errorf("ring got %v want %d", in[0], prev)
			}
		}
	})
}
