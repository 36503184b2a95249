package cache

import (
	"errors"
	"testing"

	"dsarp/internal/snap"
)

// fakeBackend records traffic and completes reads on demand.
type fakeBackend struct {
	reads   []uint64
	writes  []uint64
	pending []func(now int64)
	reject  bool
}

func (f *fakeBackend) ReadLine(addr uint64, onDone func(now int64)) bool {
	if f.reject {
		return false
	}
	f.reads = append(f.reads, addr)
	f.pending = append(f.pending, onDone)
	return true
}

func (f *fakeBackend) WriteLine(addr uint64) bool {
	if f.reject {
		return false
	}
	f.writes = append(f.writes, addr)
	return true
}

func (f *fakeBackend) completeAll(now int64) {
	for _, fn := range f.pending {
		fn(now)
	}
	f.pending = nil
}

func smallCfg() Config {
	// 4 sets x 2 ways x 64B = 512B slice: easy to evict.
	return Config{SizeBytes: 512, Ways: 2, LineBytes: 64, HitLatency: 3}
}

func newSlice() (*Slice, *fakeBackend) {
	b := &fakeBackend{}
	return NewSlice(smallCfg(), b), b
}

func TestMissThenHit(t *testing.T) {
	s, b := newSlice()
	var fills int
	if !s.Access(0, 0x1000, false, 0, func(int64) { fills++ }) {
		t.Fatal("miss not admitted")
	}
	if len(b.reads) != 1 || b.reads[0] != 0x1000 {
		t.Fatalf("backend reads: %v", b.reads)
	}
	b.completeAll(50)
	if fills != 1 {
		t.Fatal("fill waiter not woken")
	}
	// Second access: hit, delivered after HitLatency.
	var hitAt int64 = -1
	s.Access(100, 0x1000, false, 0, func(now int64) { hitAt = now })
	if len(b.reads) != 1 {
		t.Error("hit went to DRAM")
	}
	s.Tick(102)
	if hitAt != -1 {
		t.Error("hit delivered before HitLatency")
	}
	s.Tick(103)
	if hitAt != 103 {
		t.Errorf("hit delivered at %d, want 103", hitAt)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Accesses != 2 {
		t.Errorf("stats: %+v", st)
	}
}

func TestMSHRMerge(t *testing.T) {
	s, b := newSlice()
	n := 0
	s.Access(0, 0x1000, false, 0, func(int64) { n++ })
	s.Access(1, 0x1000, false, 0, func(int64) { n++ })
	if len(b.reads) != 1 {
		t.Fatalf("merged miss fetched twice: %v", b.reads)
	}
	if s.Stats().MSHRMerges != 1 {
		t.Errorf("MSHRMerges = %d", s.Stats().MSHRMerges)
	}
	b.completeAll(10)
	if n != 2 {
		t.Errorf("both waiters should wake, got %d", n)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	s, b := newSlice()
	// Store to line A: write-allocate, dirty after fill.
	s.Access(0, 0x0000, true, 0, nil)
	b.completeAll(1)
	// Fill two more lines mapping to set 0 (set stride = 4 sets * 64B = 256B).
	s.Access(2, 0x0100, false, 0, nil)
	b.completeAll(3)
	s.Access(4, 0x0200, false, 0, nil) // evicts LRU = dirty line A
	b.completeAll(5)
	if len(b.writes) != 1 || b.writes[0] != 0x0000 {
		t.Fatalf("dirty eviction writebacks: %v", b.writes)
	}
	if s.Stats().Writebacks != 1 {
		t.Errorf("Writebacks = %d", s.Stats().Writebacks)
	}
}

func TestCleanEvictionSilent(t *testing.T) {
	s, b := newSlice()
	s.Access(0, 0x0000, false, 0, nil)
	b.completeAll(1)
	s.Access(2, 0x0100, false, 0, nil)
	b.completeAll(3)
	s.Access(4, 0x0200, false, 0, nil)
	b.completeAll(5)
	if len(b.writes) != 0 {
		t.Fatalf("clean eviction wrote back: %v", b.writes)
	}
}

func TestLRUVictimSelection(t *testing.T) {
	s, b := newSlice()
	s.Access(0, 0x0000, false, 0, nil) // A
	s.Access(1, 0x0100, false, 0, nil) // B
	b.completeAll(2)
	s.Access(3, 0x0000, false, 0, nil) // touch A: B becomes LRU
	s.Access(4, 0x0200, false, 0, nil) // C evicts B
	b.completeAll(5)
	// A must still hit.
	hits := s.Stats().Hits
	s.Access(6, 0x0000, false, 0, nil)
	if s.Stats().Hits != hits+1 {
		t.Error("LRU evicted the recently used line")
	}
}

func TestBackpressurePropagates(t *testing.T) {
	s, b := newSlice()
	b.reject = true
	if s.Access(0, 0x1000, false, 0, nil) {
		t.Error("miss admitted while backend rejects")
	}
	if s.Stats().Accesses != 0 {
		t.Error("rejected access counted")
	}
	b.reject = false
	if !s.Access(1, 0x1000, false, 0, nil) {
		t.Error("retry failed after backend recovered")
	}
}

func TestRejectedWritebackRetriedOnTick(t *testing.T) {
	s, b := newSlice()
	s.Access(0, 0x0000, true, 0, nil)
	b.completeAll(1)
	s.Access(2, 0x0100, false, 0, nil)
	b.completeAll(3)
	b.reject = true
	s.Access(4, 0x0200, false, 0, nil) // admitted? no - reject... read rejected too
	b.reject = false
	s.Access(5, 0x0200, false, 0, nil)
	b.reject = true
	b.completeAll(6) // fill evicts dirty line; writeback rejected and parked
	if s.PendingWritebacks() != 1 {
		t.Fatalf("pending writebacks = %d, want 1", s.PendingWritebacks())
	}
	b.reject = false
	s.Tick(7)
	if s.PendingWritebacks() != 0 || len(b.writes) != 1 {
		t.Errorf("writeback not retried: pending=%d writes=%v", s.PendingWritebacks(), b.writes)
	}
}

func TestStoreMergesIntoPendingFill(t *testing.T) {
	s, b := newSlice()
	s.Access(0, 0x1000, false, 0, nil)
	s.Access(1, 0x1000, true, 0, nil) // store merges into the fill, marks dirty
	b.completeAll(2)
	// Evict it: two more lines in the same set.
	s.Access(3, 0x1100, false, 0, nil)
	b.completeAll(4)
	s.Access(5, 0x1200, false, 0, nil)
	b.completeAll(6)
	if len(b.writes) != 1 {
		t.Errorf("merged store lost its dirty bit: writes=%v", b.writes)
	}
}

func TestMissRate(t *testing.T) {
	s, b := newSlice()
	s.Access(0, 0x1000, false, 0, nil)
	b.completeAll(1)
	s.Access(2, 0x1000, false, 0, nil)
	if got := s.Stats().MissRate(); got != 0.5 {
		t.Errorf("MissRate = %v, want 0.5", got)
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two set count accepted")
		}
	}()
	NewSlice(Config{SizeBytes: 192, Ways: 1, LineBytes: 64, HitLatency: 1}, &fakeBackend{})
}

// TestLoadStateBoundsCounts feeds a slice sealed snapshots whose list
// counts are hostile. Each must fail promptly: an unbounded loader would
// append zeros until the process ran out of memory.
func TestLoadStateBoundsCounts(t *testing.T) {
	for _, tc := range []struct {
		name string
		tail func(w *snap.Writer) // everything after the tag store
	}{
		{"pending writebacks", func(w *snap.Writer) { w.Int(1 << 40) }},
		{"negative writebacks", func(w *snap.Writer) { w.Int(-1) }},
		{"hit deliveries", func(w *snap.Writer) { w.Int(0); w.Int(1 << 40) }},
		{"mshr chain", func(w *snap.Writer) { w.Int(0); w.Int(0); w.Int(1 << 40) }},
		{"mshr waiters", func(w *snap.Writer) {
			w.Int(0)
			w.Int(0)
			w.Int(1)
			w.U64(0)
			w.Bool(false)
			w.Int(1 << 40)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := newSlice()
			w := snap.NewWriter()
			w.Section("slice")
			for i := 0; i < 6; i++ { // LRU clock and stats
				w.I64(0)
			}
			for _, set := range s.sets {
				w.U64(0) // mru
				for range set {
					w.U64(0)
					w.Bool(false)
					w.Bool(false)
					w.I64(0)
				}
			}
			tc.tail(w)
			r, err := snap.NewReader(w.Finish())
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Section("slice"); err != nil {
				t.Fatal(err)
			}
			noCore := func(uint64) (func(int64), error) { return nil, errors.New("no core") }
			if err := s.LoadState(r, noCore); err == nil {
				t.Error("hostile count accepted")
			} else {
				t.Log(err)
			}
		})
	}
}
