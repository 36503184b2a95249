// Package refresh implements the DRAM-internal refresh unit: the counters
// that decide which rows a refresh command restores.
//
// A commodity device keeps a single refresh row counter per rank and, for
// per-bank refresh, an internal round-robin bank pointer (paper §2.2.2).
// DARP moves bank selection to the memory controller, which requires one
// row counter per bank because postponed/pulled-in refreshes let bank
// counters drift apart (paper §4.2.3, modification 5). SARP additionally
// decouples the row counter into a refresh-subarray counter and a local-row
// counter (paper §4.3.1, component 1); here that decomposition falls out of
// the row index arithmetically.
package refresh

import (
	"fmt"

	"dsarp/internal/snap"
)

// Unit is the refresh bookkeeping for one rank.
type Unit struct {
	banks       int
	rowsPerBank int
	rowsPerSub  int
	rowsPerRef  int

	rrBank  int   // round-robin pointer for standard REFpb
	nextRow []int // per-bank local row counter (wraps at rowsPerBank)
	issued  []int64
}

// NewUnit builds a refresh unit for a rank.
func NewUnit(banks, rowsPerBank, subarraysPerBank, rowsPerRef int) *Unit {
	if banks <= 0 || rowsPerBank <= 0 || subarraysPerBank <= 0 || rowsPerRef <= 0 {
		panic(fmt.Sprintf("refresh: invalid unit geometry banks=%d rows=%d subs=%d rowsPerRef=%d",
			banks, rowsPerBank, subarraysPerBank, rowsPerRef))
	}
	return &Unit{
		banks:       banks,
		rowsPerBank: rowsPerBank,
		rowsPerSub:  rowsPerBank / subarraysPerBank,
		rowsPerRef:  rowsPerRef,
		nextRow:     make([]int, banks),
		issued:      make([]int64, banks),
	}
}

// Op describes the rows one refresh command restores in one bank.
type Op struct {
	Bank     int
	StartRow int
	Rows     int
	Subarray int // subarray of StartRow (refresh ops do not straddle subarrays in practice)
}

// PeekBank returns the bank the internal round-robin pointer would refresh
// next (standard REFpb behavior).
func (u *Unit) PeekBank() int { return u.rrBank }

// PeekSubarray returns the subarray the next refresh of bank will occupy.
func (u *Unit) PeekSubarray(bank int) int { return u.nextRow[bank] / u.rowsPerSub }

// PeekRow returns the next row the given bank's counter points at.
func (u *Unit) PeekRow(bank int) int { return u.nextRow[bank] }

// Issued returns the number of refresh ops this bank has received.
func (u *Unit) Issued(bank int) int64 { return u.issued[bank] }

// RefreshBank consumes one refresh op for the bank: it returns the rows
// restored and advances the bank's row counter. If bank matches the
// round-robin pointer the pointer advances too, so standard REFpb and
// controller-directed (DARP) refreshes share one bookkeeping path.
func (u *Unit) RefreshBank(bank int) Op { return u.RefreshBankN(bank, u.rowsPerRef) }

// RefreshBankN is RefreshBank with an explicit op size (fine granularity
// refresh restores a fraction of the standard op's rows per command).
func (u *Unit) RefreshBankN(bank, rows int) Op {
	if bank < 0 || bank >= u.banks {
		panic(fmt.Sprintf("refresh: bank %d out of range [0,%d)", bank, u.banks))
	}
	op := u.advance(bank, rows)
	if bank == u.rrBank {
		u.rrBank = (u.rrBank + 1) % u.banks
	}
	return op
}

func (u *Unit) advance(bank, rows int) Op {
	if rows <= 0 {
		rows = 1
	}
	start := u.nextRow[bank]
	n := rows
	if start+n > u.rowsPerBank {
		n = u.rowsPerBank - start
	}
	u.nextRow[bank] = (start + n) % u.rowsPerBank
	u.issued[bank]++
	return Op{Bank: bank, StartRow: start, Rows: n, Subarray: start / u.rowsPerSub}
}

// AppendState writes the unit's mutable counters: the round-robin bank
// pointer, the per-bank row counters, and the per-bank issued totals.
// Geometry is construction-derived and omitted.
func (u *Unit) AppendState(w *snap.Writer) {
	w.Int(u.rrBank)
	for _, v := range u.nextRow {
		w.Int(v)
	}
	for _, v := range u.issued {
		w.I64(v)
	}
}

// LoadState restores the counters written by AppendState onto a unit of
// the same geometry.
func (u *Unit) LoadState(r *snap.Reader) error {
	u.rrBank = r.Int()
	for b := range u.nextRow {
		u.nextRow[b] = r.Int()
	}
	for b := range u.issued {
		u.issued[b] = r.I64()
	}
	if u.rrBank < 0 || u.rrBank >= u.banks {
		return fmt.Errorf("refresh: snapshot rrBank %d out of range [0,%d)", u.rrBank, u.banks)
	}
	return r.Err()
}

// RefreshAll consumes one refresh op in every bank (all-bank refresh) and
// returns the per-bank ops in bank order.
func (u *Unit) RefreshAll() []Op { return u.RefreshAllN(u.rowsPerRef) }

// RefreshAllN is RefreshAll with an explicit per-bank op size.
func (u *Unit) RefreshAllN(rows int) []Op {
	ops := make([]Op, u.banks)
	for b := 0; b < u.banks; b++ {
		ops[b] = u.advance(b, rows)
	}
	return ops
}
