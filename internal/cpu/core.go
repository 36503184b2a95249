// Package cpu models the out-of-order cores of the evaluated system: 4 GHz,
// 3-wide issue, 128-entry instruction window, 8 MSHRs per core (paper
// Table 1). The model is the standard trace-driven window model: the core
// retires up to issue-width instructions per CPU cycle, cannot retire past
// an incomplete load, cannot run more than the window size ahead of
// retirement, and cannot have more loads outstanding than its MSHRs (or the
// benchmark's own memory-level-parallelism cap for dependent chains).
package cpu

import (
	"math"

	"dsarp/internal/fifo"
	"dsarp/internal/trace"
)

// Config sets the core microarchitecture parameters.
type Config struct {
	Width  int // issue/retire width per CPU cycle
	Window int // instruction window (ROB) size
	MSHRs  int // maximum outstanding load misses
	// CPUPerDRAM is the clock ratio: CPU cycles per DRAM bus cycle
	// (4 GHz / 666 MHz = 6 for DDR3-1333).
	CPUPerDRAM int
}

// DefaultConfig mirrors Table 1 of the paper.
func DefaultConfig() Config {
	return Config{Width: 3, Window: 128, MSHRs: 8, CPUPerDRAM: 6}
}

// Memory is the core's load/store port (the LLC slice). Access returns
// false when the access cannot be admitted this cycle; the core retries.
// tag identifies the requesting load (its instruction position) so a
// restored snapshot can re-link pending completion callbacks to the
// right load entry; stores pass 0.
type Memory interface {
	Access(now int64, addr uint64, write bool, tag uint64, onDone func(now int64)) bool
}

type loadEntry struct {
	pos  int64 // instruction position of the load
	done bool
	// onDone marks the entry complete; built once per entry and reused via
	// the core's free list, so issuing a load allocates nothing in steady
	// state. Safe to reuse: an entry is only recycled after retirement,
	// which requires done (the callback has already fired and cannot fire
	// again).
	onDone func(now int64)
}

// Core is one trace-driven core.
type Core struct {
	cfg    Config
	id     int // index in the system, for error messages
	gen    trace.Generator
	mem    Memory
	base   uint64 // physical address offset isolating this core's footprint
	maxOut int
	// burstQuantum is Width*CPUPerDRAM: instructions dispatched per DRAM
	// cycle during a compute burst (0 disables bursts for degenerate
	// configs with Window < Width).
	burstQuantum int64

	issued      int64 // instructions dispatched
	retired     int64
	cpuCycles   int64
	outstanding int
	// loads[loadHead:] are the in-flight load entries in program order. The
	// head index replaces pop-front reslicing: advancing a slice start while
	// appending at the end makes every append see an exhausted capacity and
	// reallocate, which was the stepped cycle's only steady-state heap
	// traffic. The head compacts the slice in place instead (amortized O(1),
	// zero allocations).
	loads     []*loadEntry
	loadHead  int
	freeLoads []*loadEntry // retired entries awaiting reuse

	next     trace.Access
	nextPos  int64
	haveNext bool

	// Memoized NextEvent answer and skip trajectory. The next-event cycle,
	// the trajectory mode, the blocking load position, and the absolute CPU
	// cycle at which memory-stall beats begin are all derived purely from
	// core state and invariant under Skip (which moves the state along the
	// exact trajectory they were derived from) — so the memo survives skips
	// and is only dropped when the state actually forks: a Tick ran, or a
	// load-completion callback arrived.
	evCached     int64
	evValid      bool
	trajMode     int8  // stallNone/stallWindow/stallMSHR at classification
	trajB        int64 // first incomplete load position (-1 none)
	trajBeatFrom int64 // absolute cpuCycles before the first beat tick

	stats Stats
}

// Stats counts core progress.
type Stats struct {
	Retired      int64
	CPUCycles    int64
	Loads        int64
	Stores       int64
	MemStallBeat int64 // dispatch beats lost to memory backpressure
}

// IPC is retired instructions per CPU cycle.
func (s Stats) IPC() float64 {
	if s.CPUCycles == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.CPUCycles)
}

// New builds a core running the given benchmark trace. base offsets the
// benchmark's footprint in physical memory so multiprogrammed cores do not
// share data (the paper's workloads are multiprogrammed, not multithreaded).
func New(id int, cfg Config, gen trace.Generator, maxOutstanding int, base uint64, mem Memory) *Core {
	if maxOutstanding <= 0 || maxOutstanding > cfg.MSHRs {
		maxOutstanding = cfg.MSHRs
	}
	c := &Core{cfg: cfg, id: id, gen: gen, mem: mem, base: base, maxOut: maxOutstanding}
	if cfg.Window >= cfg.Width {
		c.burstQuantum = int64(cfg.Width * cfg.CPUPerDRAM)
	}
	return c
}

// Stats returns progress counters.
func (c *Core) Stats() Stats {
	s := c.stats
	s.Retired = c.retired
	s.CPUCycles = c.cpuCycles
	return s
}

// Tick advances the core by the configured number of CPU cycles per DRAM
// cycle. now is the current DRAM cycle (used for memory callbacks).
//
// Tick first consults its own NextEvent: when the next slice access (or
// generator draw) provably lies beyond this DRAM cycle, the whole cycle is
// the linear trajectory Skip replays — the same substitution the selective
// stepper makes from outside, now made inside Tick so the blind-stepping
// saturation fallback gets it too. This subsumes the dedicated stall fast
// paths: a stalled core classifies as stallWindow/stallMSHR and replays its
// wait counters in O(1), with the NextEvent memo carrying across cycles
// until a load-completion callback forks the state. When the access attempt
// falls inside this cycle at sub-tick k, the k-1 pure sub-ticks before it
// advance by the same closed form and only the remainder runs the
// cycle-accurate loop.
func (c *Core) Tick(now int64) {
	if c.NextEvent(now) > now {
		c.Skip(1)
		return
	}
	// trajMode and trajB are fresh from the NextEvent classification above.
	if c.trajMode == stallNone && c.haveNext && c.burstQuantum != 0 &&
		(c.trajB < 0 || c.nextPos < c.trajB+int64(c.cfg.Window)) {
		if k := c.attemptTick() - 1; k > 0 {
			if k > int64(c.cfg.CPUPerDRAM) {
				k = int64(c.cfg.CPUPerDRAM)
			}
			c.advanceCPUTicks(k)
			c.evValid = false
			for i := int64(0); i < int64(c.cfg.CPUPerDRAM)-k; i++ {
				c.cpuTick(now)
			}
			return
		}
	}
	c.evValid = false
	for i := 0; i < c.cfg.CPUPerDRAM; i++ {
		c.cpuTick(now)
	}
}

// Stall states recognized by Tick's fast paths and the skip machinery.
const (
	stallNone   = iota
	stallWindow // retirement blocked, instruction window full
	stallMSHR   // retirement blocked, next instruction a load, MSHRs full
)

// popLoad removes the oldest in-flight load entry (the caller has already
// moved it to the free list).
func (c *Core) popLoad() {
	c.loads, c.loadHead = fifo.PopFront(c.loads, c.loadHead)
}

// stallState classifies the core per the exact conditions of Tick's two
// fast paths. Both states are functions of core-local fields that only a
// load-completion callback can change, so they persist across any window in
// which no memory callback fires.
func (c *Core) stallState() int {
	if c.loadHead < len(c.loads) && c.loads[c.loadHead].pos == c.retired && !c.loads[c.loadHead].done {
		if c.issued-c.retired >= int64(c.cfg.Window) {
			return stallWindow
		}
		if c.haveNext && c.issued == c.nextPos && !c.next.Write && c.outstanding >= c.maxOut {
			return stallMSHR
		}
	}
	return stallNone
}

// The fast-forward machinery below exploits that, absent memory callbacks
// and slice interactions, the retire and dispatch loops obey a closed form.
// With b the position of the oldest incomplete load (retirement can pop
// completed loads for free but stops dead at b), P the position of the next
// memory instruction, W the width, and N the window, after t CPU ticks:
//
//	R(t) = min(R0 + W*t, b)                      (b = +inf when no load pends)
//	I(t) = min(I0 + W*t, P, b + N)
//
// (dispatch can never outrun the window anchored at the pinned retirement,
// and the per-tick saturation collapses into the min). Everything the core
// does before its next slice access — the only interaction the rest of the
// system can observe — follows from these two lines, so NextEvent can name
// the exact cycle of that access and Skip can replay any prefix in O(1).

// firstIncomplete returns the position of the oldest incomplete load, or -1.
// Load entries are kept in program order, and in the common case the oldest
// entry is the incomplete one, so the scan terminates immediately.
func (c *Core) firstIncomplete() int64 {
	for _, ld := range c.loads[c.loadHead:] {
		if !ld.done {
			return ld.pos
		}
	}
	return -1
}

// attemptTick returns the 1-based CPU tick in which the dispatch loop first
// attempts the memory instruction at nextPos: the tick where I(t) reaches P
// with loop budget left (a full-width arrival defers to the next tick), but
// no earlier than retirement has freed enough window room for the loop to
// get past its window check (gap = P - R(t) < N). The caller must have
// established P < b + N — which also guarantees b > P - N, so the pin at b
// never keeps retirement from reaching the required P - N + 1 and the
// unpinned retirement trajectory alone decides when the room opens.
func (c *Core) attemptTick() int64 {
	w := int64(c.cfg.Width)
	at := int64(1)
	if l := c.nextPos - c.issued; l > 0 {
		tArr := (l + w - 1) / w
		at = tArr
		if l-w*(tArr-1) == w {
			at = tArr + 1
		}
	}
	// Window room: R(t) must exceed P - N before the memory branch runs.
	if need := c.nextPos - int64(c.cfg.Window) + 1 - c.retired; need > 0 {
		if tOpen := (need + w - 1) / w; tOpen > at {
			at = tOpen
		}
	}
	return at
}

// NextEvent returns the earliest cycle >= now at which Tick could do
// anything beyond the linear accounting Skip replays — that is, the cycle
// of the core's next slice access. A core that will stall before reaching
// one (window full behind an incomplete load, or its next load facing full
// MSHRs) cannot wake itself — only a load-completion callback out of the
// cache or the memory controller can, and the clock-skipping engine bounds
// every skip by those components' own events — so it reports no deadline at
// all. Part of the engine's NextEvent contract (see sim).
func (c *Core) NextEvent(now int64) int64 {
	if c.evValid {
		return c.evCached
	}
	c.evCached = c.nextEvent(now)
	c.evValid = true
	return c.evCached
}

// nextEvent classifies the core's trajectory (caching the parameters Skip
// replays from) and returns the next event cycle.
func (c *Core) nextEvent(now int64) int64 {
	c.trajB = -1
	c.trajBeatFrom = math.MaxInt64
	c.trajMode = int8(c.stallState())
	switch c.trajMode {
	case stallWindow, stallMSHR:
		return math.MaxInt64
	}
	if !c.haveNext || c.burstQuantum == 0 {
		return now // about to draw from the generator: unpredictable
	}
	b := c.firstIncomplete()
	c.trajB = b
	if b < 0 {
		// Pure compute: full-width dispatch straight toward the access.
		if l := c.nextPos - c.issued; l >= c.burstQuantum {
			return now + l/c.burstQuantum
		}
		return now
	}
	if c.nextPos >= b+int64(c.cfg.Window) {
		return math.MaxInt64 // will fill the window behind the load and stall
	}
	if !c.next.Write && c.outstanding >= c.maxOut {
		// Will reach the load and sit on full MSHRs, burning one beat per
		// CPU cycle from the attempt tick on.
		c.trajBeatFrom = c.cpuCycles + c.attemptTick() - 1
		return math.MaxInt64
	}
	if k := (c.attemptTick() - 1) / int64(c.cfg.CPUPerDRAM); k > 0 {
		return now + k
	}
	return now
}

// Skip replays the accounting of `cycles` elided Ticks (within the window
// NextEvent granted): CPU cycles always accrue; retirement and dispatch
// advance per the closed form above; memory-stall beats accrue from the
// tick the dispatch loop first parks on a full-MSHR load; and completed
// loads that retirement passed are popped exactly as the per-cycle retire
// loop would (an entry whose position equals the final retired count has
// not been retired yet and stays).
func (c *Core) Skip(cycles int64) {
	if !c.evValid {
		c.nextEvent(0) // classify the trajectory (result cycle unused)
	}
	c.advanceCPUTicks(cycles * int64(c.cfg.CPUPerDRAM))
}

// advanceCPUTicks replays n elided CPU ticks along the classified
// trajectory (the caller must have run nextEvent since the last state
// fork). Tick uses it for the pure sub-ticks before an in-cycle access
// attempt; Skip for whole elided DRAM cycles.
func (c *Core) advanceCPUTicks(n int64) {
	before := c.cpuCycles
	c.cpuCycles += n
	switch c.trajMode {
	case stallWindow:
		return
	case stallMSHR:
		c.stats.MemStallBeat += n
		return
	}
	w := int64(c.cfg.Width)
	b := c.trajB
	if b < 0 {
		gap := c.issued - c.retired
		c.issued += w * n
		if gap < w {
			c.retired += gap + w*(n-1)
		} else {
			c.retired += w * n
		}
	} else {
		if from := c.trajBeatFrom; from < c.cpuCycles {
			if from < before {
				from = before
			}
			c.stats.MemStallBeat += c.cpuCycles - from
		}
		if r := c.retired + w*n; r < b {
			c.retired = r
		} else {
			c.retired = b
		}
		i := c.issued + w*n
		if i > c.nextPos {
			i = c.nextPos
		}
		if lim := b + int64(c.cfg.Window); i > lim {
			i = lim
		}
		c.issued = i
	}
	for c.loadHead < len(c.loads) && c.loads[c.loadHead].pos < c.retired {
		c.freeLoads = append(c.freeLoads, c.loads[c.loadHead])
		c.popLoad()
	}
}

func (c *Core) cpuTick(now int64) {
	c.cpuCycles++

	// Retire: up to Width instructions, stopping at an incomplete load.
	// With no loads awaiting retirement the loop is a bounded increment.
	if c.loadHead == len(c.loads) {
		if adv := c.issued - c.retired; adv > 0 {
			if adv > int64(c.cfg.Width) {
				adv = int64(c.cfg.Width)
			}
			c.retired += adv
		}
	} else {
		for n := 0; n < c.cfg.Width && c.retired < c.issued; {
			if c.loadHead < len(c.loads) && c.loads[c.loadHead].pos == c.retired {
				if !c.loads[c.loadHead].done {
					break
				}
				c.freeLoads = append(c.freeLoads, c.loads[c.loadHead])
				c.popLoad()
			}
			c.retired++
			n++
		}
	}

	// Dispatch: up to Width instructions, bounded by the window.
	for d := 0; d < c.cfg.Width; {
		if c.issued-c.retired >= int64(c.cfg.Window) {
			break
		}
		if !c.haveNext {
			c.next = c.gen.Next()
			c.nextPos = c.issued + int64(c.next.Gap)
			c.haveNext = true
		}
		if c.issued < c.nextPos {
			// Non-memory instructions up to the access or the beat budget.
			adv := int64(c.cfg.Width - d)
			if room := int64(c.cfg.Window) - (c.issued - c.retired); adv > room {
				adv = room
			}
			if left := c.nextPos - c.issued; adv > left {
				adv = left
			}
			c.issued += adv
			d += int(adv)
			continue
		}
		// Memory instruction.
		addr := c.base + c.next.Addr
		if c.next.Write {
			if !c.mem.Access(now, addr, true, 0, nil) {
				c.stats.MemStallBeat++
				break
			}
			c.stats.Stores++
		} else {
			if c.outstanding >= c.maxOut {
				c.stats.MemStallBeat++
				break
			}
			var ld *loadEntry
			if n := len(c.freeLoads); n > 0 {
				ld = c.freeLoads[n-1]
				c.freeLoads = c.freeLoads[:n-1]
				ld.pos, ld.done = c.issued, false
			} else {
				ld = &loadEntry{pos: c.issued}
				ld.onDone = func(int64) {
					ld.done = true
					c.outstanding--
					c.evValid = false
				}
			}
			if !c.mem.Access(now, addr, false, uint64(ld.pos), ld.onDone) {
				c.freeLoads = append(c.freeLoads, ld)
				c.stats.MemStallBeat++
				break
			}
			c.outstanding++
			c.loads = append(c.loads, ld)
			c.stats.Loads++
		}
		c.issued++
		d++
		c.haveNext = false
	}
}
