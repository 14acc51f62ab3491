package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// resetCarriers stops every idle carrier and empties the list, so a test
// starts from a known pool.
func resetCarriers() {
	carriers.Lock()
	idle := append([]*carrier(nil), carriers.idle[:carriers.n]...)
	for i := range carriers.idle[:carriers.n] {
		carriers.idle[i] = nil
	}
	carriers.n = 0
	carriers.Unlock()
	for _, c := range idle {
		c.stop()
	}
}

// isIdle reports whether c is on the idle list.
func isIdle(c *carrier) bool {
	carriers.Lock()
	defer carriers.Unlock()
	for _, ic := range carriers.idle[:carriers.n] {
		if ic == c {
			return true
		}
	}
	return false
}

func idleCount() int {
	carriers.Lock()
	defer carriers.Unlock()
	return carriers.n
}

// TestRunRepanicsProcPanic: a non-abort panic in a process body is
// re-raised, with the same value, on the goroutine that called Run. The
// panicking body's carrier is dead: it never returns to the idle list,
// not even when the kernel is drained afterwards.
func TestRunRepanicsProcPanic(t *testing.T) {
	resetCarriers()
	boom := fmt.Errorf("boom")
	k := New()
	sig := NewSignal("never")
	var dead, parked *carrier
	k.Go("parked", func(p *Proc) {
		parked = p.c
		sig.Wait(p)
	})
	k.Go("bad", func(p *Proc) {
		dead = p.c
		p.Sleep(3)
		panic(boom)
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		k.Run()
		return nil
	}()
	if got != boom {
		t.Fatalf("Run recovered %v, want the body's panic value %v", got, boom)
	}
	if k.Now() != 3 {
		t.Fatalf("panic surfaced at tick %d, want 3", k.Now())
	}
	k.Drain()
	if isIdle(dead) {
		t.Fatal("the panicking body's carrier went back to the idle list")
	}
	if !isIdle(parked) {
		t.Fatal("Drain did not return the parked body's carrier")
	}
}

// TestDrainReturnsCarriers: every aborted process's carrier goes back
// to the idle list, and finished processes hold none.
func TestDrainReturnsCarriers(t *testing.T) {
	resetCarriers()
	k := New()
	sig := NewSignal("never")
	var parked []*carrier
	for i := 0; i < 3; i++ {
		k.Go("stuck", func(p *Proc) {
			parked = append(parked, p.c)
			sig.Wait(p)
		})
	}
	k.RunUntil(100)
	if idleCount() != 0 {
		t.Fatalf("idle = %d while every carrier is busy", idleCount())
	}
	k.Drain()
	for i, c := range parked {
		if !isIdle(c) {
			t.Fatalf("carrier of parked proc %d not returned by Drain", i)
		}
	}
	for _, p := range k.procs {
		if p.c != nil {
			t.Fatalf("%v still holds a carrier", p)
		}
	}
}

// TestRecycledCarrierCleanState: a carrier whose last body was aborted
// runs the next process from a clean start — the new body, no abort
// flag, a fresh wake count — and parks and resumes it normally.
func TestRecycledCarrierCleanState(t *testing.T) {
	resetCarriers()
	k1 := New()
	sig := NewSignal("never")
	var first *carrier
	k1.Go("aborted", func(p *Proc) {
		first = p.c
		sig.Wait(p)
	})
	k1.RunUntil(10)
	k1.Drain()

	k2 := New()
	var log []string
	p2 := k2.Go("fresh", func(p *Proc) {
		if p.c != first {
			t.Error("second process did not reuse the idle carrier")
		}
		if p.aborted || p.wakes != 1 {
			t.Errorf("recycled start: aborted=%v wakes=%d, want false 1", p.aborted, p.wakes)
		}
		for i := 0; i < 3; i++ {
			p.Sleep(5)
			log = append(log, fmt.Sprintf("fresh@%d", p.Now()))
		}
	})
	k2.Run()
	if want := []string{"fresh@5", "fresh@10", "fresh@15"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	if !p2.Finished() || p2.wakes != 4 || k2.LiveProcs() != 0 {
		t.Fatalf("after Run: %v, live %d; want finished with 4 wakes", p2, k2.LiveProcs())
	}
	if !isIdle(first) {
		t.Fatal("carrier not returned after its second body finished")
	}
}

// TestCarrierIdleCap: releasing more carriers than the cap keeps the
// idle list at the cap and stops the surplus coroutines.
func TestCarrierIdleCap(t *testing.T) {
	resetCarriers()
	t.Cleanup(resetCarriers)
	before := runtime.NumGoroutine()
	k := New()
	const procs = maxIdleCarriers + 10
	for i := 0; i < procs; i++ {
		k.Go("p", func(p *Proc) { p.Sleep(1) }) // all live at once
	}
	k.Run()
	if n := idleCount(); n != maxIdleCarriers {
		t.Fatalf("idle = %d after %d releases, want the cap %d", n, procs, maxIdleCarriers)
	}
	if extra := runtime.NumGoroutine() - before; extra > maxIdleCarriers {
		t.Fatalf("%d goroutines outlive the run, want at most the %d idle carriers", extra, maxIdleCarriers)
	}
}

// carrierMix builds a kernel whose processes sleep, wait, finish early
// and park forever in a pattern set by seed, so carriers are released
// and reacquired mid-run, and records its dispatch trace.
func carrierMix(seed int) (*Kernel, *[][2]uint64) {
	k := New()
	trace := &[][2]uint64{}
	k.SetDispatchObserver(func(tick, seq uint64) { *trace = append(*trace, [2]uint64{tick, seq}) })
	sig := NewSignal("mix")
	never := NewSignal("never")
	for i := 0; i < 12; i++ {
		i := i
		k.Go("worker", func(p *Proc) {
			for s := 0; s < 200+(i*seed)%17; s++ {
				p.Sleep(uint64(1 + (i+s+seed)%5))
				if (i+s)%4 == 0 {
					sig.Wait(p)
				}
			}
			if i%5 == seed%5 {
				never.Wait(p) // abandoned: released by Drain
			}
			// Late spawns pick up carriers released by finished bodies.
			k.Go("late", func(p *Proc) { p.Sleep(uint64(i + 1)) })
		})
	}
	k.Go("ticker", func(p *Proc) {
		for i := 0; i < 600; i++ {
			p.Sleep(3)
			sig.Fire()
		}
	})
	return k, trace
}

// TestConcurrentKernelsMatchSolo: kernels running at once on separate
// goroutines share the carrier pool, yet each dispatches exactly as it
// does alone. Run under -race it checks that carriers handed between
// goroutines through the pool are properly synchronized.
func TestConcurrentKernelsMatchSolo(t *testing.T) {
	const kernels = 4
	solo := make([][][2]uint64, kernels)
	for i := range solo {
		k, trace := carrierMix(i)
		k.Run()
		k.Drain()
		solo[i] = *trace
	}
	conc := make([][][2]uint64, kernels)
	var wg sync.WaitGroup
	for i := 0; i < kernels; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k, trace := carrierMix(i)
			k.Run()
			k.Drain()
			conc[i] = *trace
		}(i)
	}
	wg.Wait()
	for i := range solo {
		if len(solo[i]) == 0 {
			t.Fatalf("kernel %d dispatched nothing", i)
		}
		if !reflect.DeepEqual(solo[i], conc[i]) {
			t.Fatalf("kernel %d: concurrent trace (%d events) differs from solo (%d events)",
				i, len(conc[i]), len(solo[i]))
		}
	}
}
