// Package sched implements the memory controller: per-channel read/write
// request queues, FR-FCFS scheduling with a closed-row page policy, batched
// write draining with high/low watermarks, and the hook through which a
// refresh policy (internal/core) claims command-bus slots.
//
// The configuration mirrors Table 1 of Chang et al. (HPCA 2014): 64-entry
// read and write queues, FR-FCFS, writes drained in batches down to a low
// watermark of 32, closed-row policy.
package sched

import (
	"dsarp/internal/dram"
)

// Request is one memory request (an LLC miss or writeback) destined for a
// single DRAM channel.
type Request struct {
	ID      int64
	Core    int
	IsWrite bool
	Addr    dram.Addr
	Arrive  int64 // cycle the request entered the controller
	Done    int64 // cycle the last data beat transferred (reads) or the write was issued

	// OnComplete, if non-nil, is invoked when a read's data returns (used by
	// the cache/CPU to unblock the miss). Writes complete silently.
	OnComplete func(now int64)

	// Tag is the requester's identity for OnComplete — the pre-mapping byte
	// address of the line being filled. Callbacks do not serialize, so a
	// restored snapshot re-links OnComplete by asking the owning core's
	// cache slice for the outstanding fill on Tag's line.
	Tag uint64

	// seq is the controller-assigned admission order. FR-FCFS age comparisons
	// across per-bank buckets use it to recover the flat queue order the seed
	// controller scanned in.
	seq int64

	// rowNext chains the queued requests of one (bank, row) in age order —
	// the per-row FIFO behind the queueIndex candidate registers. Owned by
	// the bucket the request is queued in; nil while unqueued.
	rowNext *Request

	// stamp is the in-flight admission order. The controller keeps issued
	// and forwarded reads in separate FIFOs (each monotone in Done) and
	// merges completions by stamp, reproducing the insertion-order callback
	// sequence of a flat in-flight list without rescanning it.
	stamp int64
}

// bankPending tracks per-bank queued demand so refresh policies can make
// O(1) idleness decisions (DARP monitors "bank request queues' occupancies",
// paper §4.2.1).
type bankPending struct {
	banks  int
	demand []int // per-bank reads+writes totals (the slab policies scan)
	rank   []int // per-rank reads+writes totals

	// zeroEpoch counts emptiness transitions: it bumps exactly when some
	// bank's or rank's demand count crosses 0 <-> nonzero. Policies whose
	// decisions depend only on which banks are idle (DARP's pull-in
	// eligibility) key their caches on it, so steady saturated traffic —
	// where counts move but never touch zero — does not force rebuilds the
	// way a counter bumped on every admission would.
	zeroEpoch uint64
}

func newBankPending(ranks, banks int) *bankPending {
	n := ranks * banks
	return &bankPending{banks: banks, demand: make([]int, n), rank: make([]int, ranks)}
}

func (p *bankPending) add(r *Request, delta int) {
	i := r.Addr.Rank*p.banks + r.Addr.Bank
	p.demand[i] += delta
	p.rank[r.Addr.Rank] += delta
	if p.demand[i] == 0 || p.demand[i] == delta || p.rank[r.Addr.Rank] == 0 || p.rank[r.Addr.Rank] == delta {
		p.zeroEpoch++
	}
}

// Rank is the total queued demand (reads+writes) for a whole rank.
func (p *bankPending) Rank(rank int) int { return p.rank[rank] }
