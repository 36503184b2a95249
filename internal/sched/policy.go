package sched

import (
	"math"

	"dsarp/internal/dram"
	"dsarp/internal/snap"
	"dsarp/internal/timing"
)

// RefreshPolicy decides when and where refresh commands are issued. The
// controller gives the policy one chance per DRAM cycle to claim the
// channel's command-bus slot; all the paper's mechanisms (REFab, REFpb,
// Elastic, DARP, DSARP, FGR, AR) are implementations of this interface in
// package core.
type RefreshPolicy interface {
	// Name identifies the policy in results tables.
	Name() string

	// Tick may issue at most one command through the View (a refresh, or a
	// precharge that drains a bank ahead of a pending refresh). demandReady
	// reports whether the controller has a demand command it could issue
	// this cycle — the "Can issue a demand request?" decision point of the
	// paper's Fig. 8. Tick returns true iff it consumed the command slot.
	Tick(now int64, demandReady bool) bool

	// RankBlocked reports that demand to a whole rank must be held while an
	// all-bank refresh is pending (drain-for-refresh).
	RankBlocked(rank int) bool

	// BankBlocked reports that demand to one bank must be held while a
	// per-bank refresh is pending on it.
	BankBlocked(rank, bank int) bool

	// NextDeadline returns the earliest cycle >= now at which the policy's
	// Tick could stop being a no-op: issue or attempt a command, change a
	// RankBlocked/BankBlocked answer, consume randomness, or mutate any
	// internal state beyond the per-cycle accounting Skip replays. The
	// clock-skipping engine only skips a cycle when every component's next
	// event lies beyond it, so the bound may assume no enqueue, demand
	// issue, or read completion happens before the returned cycle. It is a
	// lower bound: answering earlier than the true next action only costs a
	// fallback to cycle stepping, but answering later would desynchronize
	// the clock-skipping run from a per-cycle one — never miss an event.
	NextDeadline(now int64) int64

	// Skip informs the policy that its Ticks for cycles [from, to) were
	// elided — NextDeadline promised each would have been a no-op — so it
	// can advance per-cycle accounting (e.g. Elastic's idle-run counter)
	// exactly as the omitted Ticks would have.
	Skip(from, to int64)
}

// View is the controller surface a RefreshPolicy operates through.
type View interface {
	// Dev is the DRAM device behind this channel.
	Dev() *dram.Device
	// Timing is the active timing parameter set.
	Timing() timing.Params
	// PendingDemandSlab is the live per-bank reads+writes table, indexed by
	// flat bank id rank*Banks+bank. Policies that sweep every bank each
	// decision (DARP's eligibility rebuild) read it directly instead of
	// paying an interface call per bank. The returned slice is stable for
	// the controller's lifetime — policies may cache it at construction —
	// but must never mutate it.
	PendingDemandSlab() []int
	// PendingRankDemand is the number of queued reads+writes for a whole
	// rank — the O(1) form of the per-bank sum that idle-rank checks
	// (Elastic, AR, Pausing) would otherwise rebuild every cycle.
	PendingRankDemand(rank int) int
	// DemandZeroEpoch is a counter that bumps exactly when some bank's or
	// rank's pending-demand count crosses 0 <-> nonzero. Policies whose
	// cached decisions depend only on which banks/ranks are idle key on it:
	// under saturated traffic the counts move every cycle but rarely touch
	// zero, so the cache survives.
	DemandZeroEpoch() uint64
	// WriteMode reports whether the controller is draining a write batch.
	WriteMode() bool
	// NoteBlockedChanged must be called by the attached refresh policy
	// whenever any RankBlocked or BankBlocked answer may have changed.
	// Policies unblock on their own schedule without issuing a command, so
	// the controller keeps a blocked epoch to know when a cached scheduling
	// decision that honored the old block state must be re-derived; owning
	// the counter (instead of polling the policy through the interface
	// every cycle) keeps the per-cycle checks to one field read. A policy
	// may call spuriously (that only costs a re-scan) but must never miss a
	// change.
	NoteBlockedChanged()
	// IssueCmd issues a command on behalf of the policy, consuming the
	// cycle's command slot. The command must satisfy Dev().CanIssue.
	IssueCmd(cmd dram.Cmd, now int64)
}

// NoRefresh is the ideal baseline: refresh is never performed.
type NoRefresh struct{}

// Name implements RefreshPolicy.
func (NoRefresh) Name() string { return "NoREF" }

// Tick implements RefreshPolicy: it never claims the slot.
func (NoRefresh) Tick(int64, bool) bool { return false }

// RankBlocked implements RefreshPolicy.
func (NoRefresh) RankBlocked(int) bool { return false }

// BankBlocked implements RefreshPolicy.
func (NoRefresh) BankBlocked(int, int) bool { return false }

// NextDeadline implements RefreshPolicy: there is never anything to do.
func (NoRefresh) NextDeadline(int64) int64 { return math.MaxInt64 }

// Skip implements RefreshPolicy.
func (NoRefresh) Skip(int64, int64) {}

// AppendState implements snap.Codec: NoRefresh has no state.
func (NoRefresh) AppendState(*snap.Writer) {}

// LoadState implements snap.Codec.
func (NoRefresh) LoadState(*snap.Reader) error { return nil }
