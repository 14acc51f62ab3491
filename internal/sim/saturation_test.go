package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestInboxShrinksAfterStorm is the regression test for the cross-
// message high-water-mark leak: one incast storm used to grow the
// destination-side staging (formerly the inbox slot pool; now the pend,
// inj, and spill slices behind the pair rings) to the burst size
// forever. After the storm drains and the run goes idle, every staging
// slice must have been trimmed back at a quantum boundary.
func TestInboxShrinksAfterStorm(t *testing.T) {
	const (
		la    = 10
		storm = 8192
		slow  = 50
	)
	pk := NewParallel(2, la, 2)
	var got uint64
	sig := NewSignal("storm.got")
	deliver := func(a0, a1, a2, a3 uint64) {
		got++
		sig.Fire()
	}
	pk.Domain(0).Go("storm/src", func(p *Proc) {
		// Incast storm: the whole burst is posted within one quantum, so
		// every message needs its own inbox slot at the merge barrier.
		for i := 0; i < storm; i++ {
			pk.Post(0, 1, p.Now()+la, deliver, uint64(i), 0, 0, 0)
		}
		// Then a long idle phase with sparse traffic: many barriers with
		// near-zero occupancy, which is where the pool must shrink.
		for i := 0; i < slow; i++ {
			p.Sleep(200)
			pk.Post(0, 1, p.Now()+la, deliver, uint64(i), 1, 0, 0)
		}
	})
	pk.Domain(1).Go("storm/sink", func(p *Proc) {
		WaitUntil(p, sig, func() bool { return got == storm+slow })
	})
	pk.SetDeadline(1 << 30)
	pk.Run()
	if got != storm+slow {
		t.Fatalf("delivered %d, want %d", got, storm+slow)
	}
	if sp := pk.Spilled(); sp == 0 {
		t.Fatalf("storm of %d messages never overflowed the %d-slot pair ring; storm too small to test the spill path", storm, ringCap)
	}
	if n := pk.CrossCapacity(); n > 4*crossShrinkFloor {
		t.Fatalf("cross staging holds capacity %d after burst-then-idle run; want <= %d (high-water leak)",
			n, 4*crossShrinkFloor)
	}
}

// TestInboxShrinkKeepsOccupiedSlots drives repeated storms with the pool
// shrinking between them and checks no delivery is lost or corrupted —
// the trim must never move or drop an occupied slot.
func TestInboxShrinkKeepsOccupiedSlots(t *testing.T) {
	const la = 5
	pk := NewParallel(2, la, 1)
	var got, sum uint64
	sig := NewSignal("waves.got")
	deliver := func(a0, a1, a2, a3 uint64) {
		got++
		sum += a0
		sig.Fire()
	}
	const waves, per = 8, 500
	var want uint64
	pk.Domain(0).Go("waves/src", func(p *Proc) {
		for w := 0; w < waves; w++ {
			for i := 0; i < per; i++ {
				// Spread delivery ticks so slots stay occupied across
				// several quanta while others free — the mixed-occupancy
				// state the tail trim must respect.
				pk.Post(0, 1, p.Now()+la+uint64(i%37), deliver, uint64(w*per+i), 0, 0, 0)
			}
			want += per
			p.Sleep(1000) // idle gap: shrink barriers
		}
	})
	pk.Domain(1).Go("waves/sink", func(p *Proc) {
		WaitUntil(p, sig, func() bool { return got == waves*per })
	})
	pk.SetDeadline(1 << 30)
	pk.Run()
	if got != waves*per {
		t.Fatalf("delivered %d, want %d", got, waves*per)
	}
	var expect uint64
	for i := uint64(0); i < waves*per; i++ {
		expect += i
	}
	if sum != expect {
		t.Fatalf("payload checksum %d, want %d (slot moved or reused while occupied)", sum, expect)
	}
}

// TestFarHorizonFIFO is the property test for far-heap scheduling: a
// random mix of near-wheel, far-heap, and end-of-time ticks — including
// same-tick clusters — must dispatch in exact (tick, seq) order, with no
// mis-bucketing near the uint64 boundary.
func TestFarHorizonFIFO(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	k := New()
	type stamp struct{ tick, seq uint64 }
	var want []stamp
	add := func(tick uint64) {
		k.At(tick, func() {})
		want = append(want, stamp{tick, k.seq})
	}
	// Boundary ticks: at and around the top of the range, at the wheel
	// window edge, and on exact powers of two.
	max := ^uint64(0)
	for _, tk := range []uint64{max, max, max - 1, max - wheelSize, max - wheelSize - 1,
		max - wheelSize + 1, 1 << 63, (1 << 63) - 1, wheelSize, wheelSize - 1, 0} {
		add(tk)
	}
	// Random far-horizon inserts with same-tick clusters.
	for i := 0; i < 2000; i++ {
		var tk uint64
		switch rng.Intn(4) {
		case 0:
			tk = uint64(rng.Intn(2 * wheelSize))
		case 1:
			tk = rng.Uint64() % (1 << 32)
		case 2:
			tk = max - uint64(rng.Intn(4*wheelSize))
		default:
			tk = rng.Uint64()
		}
		n := 1 + rng.Intn(3)
		for j := 0; j < n; j++ {
			add(tk)
		}
	}
	var got []stamp
	k.SetDispatchObserver(func(tick, seq uint64) { got = append(got, stamp{tick, seq}) })
	k.Run()

	sort.Slice(want, func(i, j int) bool {
		if want[i].tick != want[j].tick {
			return want[i].tick < want[j].tick
		}
		return want[i].seq < want[j].seq
	})
	if len(got) != len(want) {
		t.Fatalf("dispatched %d events, scheduled %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch %d: got (%d,%d), want (%d,%d)",
				i, got[i].tick, got[i].seq, want[i].tick, want[i].seq)
		}
	}
	if k.Now() != max {
		t.Fatalf("clock ended at %d, want %d", k.Now(), max)
	}
}

// TestFarHorizonInsertDuringRun pins FIFO order when callbacks schedule
// new far-horizon and same-tick events while the kernel is draining a
// batched tick bucket.
func TestFarHorizonInsertDuringRun(t *testing.T) {
	k := New()
	var order []uint64
	note := func(id uint64) func() {
		return func() { order = append(order, id) }
	}
	base := uint64(1 << 40)
	k.At(base, func() {
		order = append(order, 1)
		k.At(base, note(2))             // same tick, must run this tick after 3
		k.At(base+wheelSize*3, note(4)) // far future relative to wheel
		k.At(^uint64(0), note(5))       // end of time
	})
	k.At(base, note(3)) // scheduled before the callback's same-tick insert
	k.Run()
	want := []uint64{1, 3, 2, 4, 5}
	if len(order) != len(want) {
		t.Fatalf("got order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("got order %v, want %v", order, want)
		}
	}
}

// TestParallelFarFutureTermination pins that the quantum loop terminates
// when pending events sit at the very top of the tick range: the window
// end start+lookahead used to wrap to a tiny value, marking no lane
// runnable while events stayed pending — a barrier livelock.
func TestParallelFarFutureTermination(t *testing.T) {
	pk := NewParallel(3, 7, 2)
	// One counter per domain: domains run on different lane goroutines.
	var perDomain [3]int
	max := ^uint64(0)
	for d := 0; d < 3; d++ {
		n := &perDomain[d]
		pk.Domain(d).At(100+uint64(d), func() { *n++ })
		pk.Domain(d).At(max-uint64(d), func() { *n++ })
		pk.Domain(d).At(max, func() { *n++ })
	}
	pk.Run()
	fired := perDomain[0] + perDomain[1] + perDomain[2]
	if fired != 9 {
		t.Fatalf("fired %d events, want 9", fired)
	}
	if pk.LastEventTick() != max {
		t.Fatalf("last event tick %d, want %d", pk.LastEventTick(), max)
	}
}
