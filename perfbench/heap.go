package main

import (
	"runtime/metrics"
	"sync"
	"time"
)

// heapObjects is the runtime metric for heap memory occupied by objects,
// live or not yet swept.
const heapObjects = "/memory/classes/heap/objects:bytes"

// heapPeak samples the Go heap every millisecond until stop. The window is
// cut into segments (one per grid, or one per fixed period) and the
// reported figure is the median of the segments' peaks: the peak a typical
// grid or second reaches, which does not hinge on where one GC cycle
// happened to fall.
type heapPeak struct {
	period time.Duration
	done   chan struct{}
	wg     sync.WaitGroup
	mu     sync.Mutex
	cur    uint64
	peaks  []float64
}

// startHeapPeak starts sampling; a positive period cuts a segment every
// period, otherwise the caller cuts them.
func startHeapPeak(period time.Duration) *heapPeak {
	h := &heapPeak{period: period, done: make(chan struct{})}
	sample := []metrics.Sample{{Name: heapObjects}}
	read := func() {
		metrics.Read(sample)
		h.mu.Lock()
		h.cur = max(h.cur, sample[0].Value.Uint64())
		h.mu.Unlock()
	}
	read()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		last := time.Now()
		for {
			select {
			case <-h.done:
				read()
				return
			case now := <-tick.C:
				read()
				if period > 0 && now.Sub(last) >= period {
					h.cut()
					last = now
				}
			}
		}
	}()
	return h
}

// cut ends the current segment.
func (h *heapPeak) cut() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.cur > 0 {
		h.peaks = append(h.peaks, float64(h.cur)/(1<<20))
	}
	h.cur = 0
}

// stop ends sampling and returns the median segment peak in MB. With
// caller-cut segments the tail after the last cut is not a segment.
func (h *heapPeak) stop() float64 {
	close(h.done)
	h.wg.Wait()
	if h.period > 0 {
		h.cut()
	}
	return quantile(h.peaks, 0.5)
}
