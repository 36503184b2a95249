package cache

import (
	"fmt"
	"math"

	"dsarp/internal/snap"
)

// AppendState writes the slice's mutable state: the tag store, LRU
// clocks, MSHR chains (order preserved — fill unlinks mid-chain), pending
// writebacks, pending hit deliveries, and counters. Callbacks do not
// serialize: waiters and hit deliveries carry the requester's tag and are
// re-linked by LoadState; each MSHR entry's fill callback is rebuilt
// fresh. The free list and the nextHitAt memo are derived state and
// omitted.
func (s *Slice) AppendState(w *snap.Writer) {
	w.I64(s.tick)
	w.I64(s.stats.Accesses)
	w.I64(s.stats.Hits)
	w.I64(s.stats.Misses)
	w.I64(s.stats.MSHRMerges)
	w.I64(s.stats.Writebacks)
	for si, set := range s.sets {
		w.U64(uint64(s.mru[si]))
		for _, ln := range set {
			w.U64(ln.tag)
			w.Bool(ln.valid)
			w.Bool(ln.dirty)
			w.I64(ln.used)
		}
	}
	wbs := s.pendingWB[s.wbHead:]
	w.Int(len(wbs))
	for _, a := range wbs {
		w.U64(a)
	}
	hits := s.hits[s.hitHead:]
	w.Int(len(hits))
	for _, h := range hits {
		w.I64(h.at)
		w.U64(h.tag)
	}
	for _, head := range s.mshr {
		n := 0
		for e := head; e != nil; e = e.next {
			n++
		}
		w.Int(n)
		for e := head; e != nil; e = e.next {
			w.U64(e.lineAddr)
			w.Bool(e.dirty)
			w.Int(len(e.waiters))
			for _, wt := range e.waiters {
				w.U64(wt.tag)
			}
		}
	}
}

// LoadState restores the state written by AppendState onto a freshly
// built slice of the same configuration. resolve maps a waiter tag back
// to the owning core's completion callback (the core must be restored
// first).
func (s *Slice) LoadState(r *snap.Reader, resolve func(tag uint64) (func(now int64), error)) error {
	s.tick = r.I64()
	s.stats.Accesses = r.I64()
	s.stats.Hits = r.I64()
	s.stats.Misses = r.I64()
	s.stats.MSHRMerges = r.I64()
	s.stats.Writebacks = r.I64()
	for si, set := range s.sets {
		s.mru[si] = uint16(r.U64())
		for i := range set {
			set[i].tag = r.U64()
			set[i].valid = r.Bool()
			set[i].dirty = r.Bool()
			set[i].used = r.I64()
		}
	}
	// The lists below have no configured capacity (a rejected writeback
	// waits for as long as the controller's write queue stays full), so
	// each count is bounded by the section bytes its records would need.
	s.pendingWB = s.pendingWB[:0]
	s.wbHead = 0
	for n := r.Count(math.MaxInt, 8); n > 0; n-- {
		s.pendingWB = append(s.pendingWB, r.U64())
	}
	s.hits = s.hits[:0]
	s.hitHead = 0
	nHits := r.Count(math.MaxInt, 16)
	if err := r.Err(); err != nil {
		return fmt.Errorf("cache: pending lists: %w", err)
	}
	for i := 0; i < nHits; i++ {
		h := hitDelivery{at: r.I64(), tag: r.U64()}
		if err := r.Err(); err != nil {
			return err
		}
		fn, err := resolve(h.tag)
		if err != nil {
			return fmt.Errorf("cache: hit delivery: %w", err)
		}
		h.onDone = fn
		s.hits = append(s.hits, h)
	}
	s.nextHitAt = math.MaxInt64
	if len(s.hits) > 0 {
		s.nextHitAt = s.hits[0].at
	}
	s.free = nil
	for si := range s.mshr {
		s.mshr[si] = nil
		n := r.Count(math.MaxInt, 17)
		if err := r.Err(); err != nil {
			return fmt.Errorf("cache: mshr chain: %w", err)
		}
		var tail *mshrEntry
		for i := 0; i < n; i++ {
			e := &mshrEntry{lineAddr: r.U64(), dirty: r.Bool()}
			e.onFill = func(at int64) { s.fill(at, e) }
			nw := r.Count(math.MaxInt, 8)
			if err := r.Err(); err != nil {
				return fmt.Errorf("cache: mshr waiters: %w", err)
			}
			for j := 0; j < nw; j++ {
				wt := waiter{tag: r.U64()}
				if err := r.Err(); err != nil {
					return err
				}
				fn, err := resolve(wt.tag)
				if err != nil {
					return fmt.Errorf("cache: mshr waiter: %w", err)
				}
				wt.fn = fn
				e.waiters = append(e.waiters, wt)
			}
			if tail == nil {
				s.mshr[si] = e
			} else {
				tail.next = e
			}
			tail = e
		}
	}
	return r.Err()
}

// FillCallback returns the fill callback of the outstanding miss on the
// given line, for re-linking a restored memory controller's in-flight
// reads. A snapshot that references a line with no outstanding miss is
// corrupt.
func (s *Slice) FillCallback(lineAddr uint64) (func(at int64), error) {
	for e := s.mshr[lineAddr&s.setMask]; e != nil; e = e.next {
		if e.lineAddr == lineAddr {
			return e.onFill, nil
		}
	}
	return nil, fmt.Errorf("cache: no outstanding fill for line %#x", lineAddr)
}
