package fabric

import (
	"fmt"
	"sync"
	"testing"

	"spamer/internal/experiments"
)

func outs(ticks uint64) []experiments.Outcome {
	return []experiments.Outcome{{Benchmark: "b", Algorithm: "vl", Ticks: ticks}}
}

// TestStoreLRUEviction: capacity bounds hold and recency decides the
// victim.
func TestStoreLRUEviction(t *testing.T) {
	s := NewStore(2)
	s.Put("a", outs(1))
	s.Put("b", outs(2))
	if _, ok := s.Get("a"); !ok { // refresh a; b becomes the LRU
		t.Fatal("a missing")
	}
	s.Put("c", outs(3))
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	if _, ok := s.Get("b"); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	if v, ok := s.Get("a"); !ok || v[0].Ticks != 1 {
		t.Fatalf("a lost: %v %v", v, ok)
	}
	if v, ok := s.Get("c"); !ok || v[0].Ticks != 3 {
		t.Fatalf("c lost: %v %v", v, ok)
	}
}

// TestStoreDisabled: non-positive capacity stores nothing.
func TestStoreDisabled(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		s := NewStore(capacity)
		s.Put("a", outs(1))
		if _, ok := s.Get("a"); ok || s.Len() != 0 {
			t.Fatalf("capacity %d: disabled store kept an entry", capacity)
		}
	}
}

// TestStoreOverwriteRefreshes: re-putting an existing hash updates in
// place without growing.
func TestStoreOverwriteRefreshes(t *testing.T) {
	s := NewStore(4)
	s.Put("a", outs(1))
	s.Put("a", outs(9))
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
	if v, _ := s.Get("a"); v[0].Ticks != 9 {
		t.Fatalf("stale value: %v", v)
	}
}

// TestStoreConcurrent: hammering one store from many goroutines is
// race-clean and never exceeds capacity.
func TestStoreConcurrent(t *testing.T) {
	s := NewStore(8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", (g*7+i)%16)
				s.Put(k, outs(uint64(i)))
				s.Get(k)
			}
		}()
	}
	wg.Wait()
	if s.Len() > 8 {
		t.Fatalf("capacity exceeded: %d", s.Len())
	}
}
