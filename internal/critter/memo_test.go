package critter

import (
	"testing"

	"critter/internal/mpi"
)

// TestMemoEntryShare checks that an entry published by one memo and
// shared into another is adopted there: the second memo's profiler starts
// the configuration with a table hit on the very same interner, and a
// later Share never displaces an entry the memo already holds.
func TestMemoEntryShare(t *testing.T) {
	key := ConfigKey("share", 3)
	run := RunKey{Config: key, Role: RoleReference}
	start := func(memo *KernelMemo) *KernelTable {
		var tab *KernelTable
		w := mpi.NewWorld(2, testMachine(0.05), 7)
		if err := w.Run(func(c *mpi.Comm) {
			p, _ := New(c, Options{Policy: Conditional, Memo: memo})
			p.StartConfigKeyed(true, run)
			p.Kernel("gemm", 8, 8, 8, 0, 1e4, func() {})
			p.Report()
			if c.Rank() == 0 {
				tab = p.Table()
			}
		}); err != nil {
			t.Fatal(err)
		}
		return tab
	}

	a, b := NewKernelMemo(), NewKernelMemo()
	tabA := start(a)
	e := a.Entry(key)
	if e == nil || e.tab != tabA {
		t.Fatalf("memo a did not publish the run's interner")
	}
	if b.Entry(key) != nil {
		t.Fatalf("fresh memo b already holds an entry")
	}
	b.Share(key, nil) // ignored
	if b.Entry(key) != nil {
		t.Fatalf("sharing nil filed an entry")
	}
	b.Share(key, e)
	if tabB := start(b); tabB != tabA {
		t.Errorf("memo b's profiler built its own interner instead of adopting the shared one")
	}
	if hits, misses := b.TableHits(); hits != 1 || misses != 0 {
		t.Errorf("memo b table hits/misses = %d/%d, want 1/0", hits, misses)
	}

	c := NewKernelMemo()
	tabC := start(c)
	c.Share(key, e)
	if c.Entry(key).tab != tabC {
		t.Errorf("Share displaced the memo's own published entry")
	}
}
