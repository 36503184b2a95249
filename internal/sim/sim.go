// Package sim assembles the full evaluated system of Chang et al. (HPCA
// 2014, Table 1): trace-driven cores, private LLC slices, per-channel
// memory controllers with a refresh mechanism, and the DRAM timing model —
// and runs it for a warmup + measurement window.
package sim

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"dsarp/internal/cache"
	"dsarp/internal/core"
	"dsarp/internal/cpu"
	"dsarp/internal/dram"
	"dsarp/internal/power"
	"dsarp/internal/sched"
	"dsarp/internal/timing"
	"dsarp/internal/trace"
	"dsarp/internal/workload"
)

// Config describes one simulation.
type Config struct {
	Workload  workload.Workload
	Mechanism core.Kind
	Density   timing.Density
	Retention timing.Retention

	Channels         int // default 2
	SubarraysPerBank int // default 8 (Table 5 sweeps this)

	CPU   cpu.Config
	Cache cache.Config
	Sched sched.Config

	// OpenRow switches the controller to an open-row page policy
	// (ablation D4).
	OpenRow bool

	// AdjustTiming, if non-nil, edits the derived timing parameters before
	// the system is built (the Table 4 tFAW/tRRD sweep).
	AdjustTiming func(*timing.Params)

	// Policy, if non-nil, overrides the scheduling policy built from
	// Mechanism (the Mechanism still selects SARP and the timing mode).
	// Used by the DESIGN.md ablations to run DARP variants.
	Policy func(v sched.View, seed int64) sched.RefreshPolicy

	Seed int64

	// Warmup and Measure are DRAM-cycle counts. The paper runs 256M CPU
	// cycles; see DESIGN.md substitution 2 for the scaled defaults.
	Warmup  int64
	Measure int64

	// Stop, if non-nil, is a cooperative abort flag: the run loop polls it
	// every few thousand iterations and at every checkpoint boundary and,
	// once it reads true, Run returns ErrInterrupted instead of a Result.
	// This is the per-simulation watchdog hook (exp.Options.SimTimeout arms
	// it from a wall-clock timer); an aborted run produces no partial
	// Result, so nothing half-measured can ever reach a cache or store. Nil
	// costs nothing on the hot path.
	Stop *atomic.Bool

	// Check attaches the DRAM protocol checker (slower; used in tests).
	Check bool
}

// WithDefaults fills unset fields with the paper's Table 1 configuration.
func (c Config) WithDefaults() Config {
	if c.Channels == 0 {
		c.Channels = 2
	}
	if c.SubarraysPerBank == 0 {
		c.SubarraysPerBank = 8
	}
	if c.CPU == (cpu.Config{}) {
		c.CPU = cpu.DefaultConfig()
	}
	if c.Cache == (cache.Config{}) {
		c.Cache = cache.DefaultConfig()
	}
	if c.Sched == (sched.Config{}) {
		c.Sched = sched.DefaultConfig()
	}
	if c.Density == 0 {
		c.Density = timing.Gb8
	}
	if c.Retention == 0 {
		c.Retention = timing.Retention32ms
	}
	if c.Warmup == 0 {
		c.Warmup = 50_000
	}
	if c.Measure == 0 {
		c.Measure = 200_000
	}
	return c
}

// Result is the outcome of one simulation's measurement window.
type Result struct {
	Mechanism string
	Workload  string

	IPC   []float64 // per-core IPC over the measurement window
	MPKI  []float64 // per-core LLC misses per kilo-instruction
	Cores []cpu.Stats
	Cache []cache.Stats

	DRAM   dram.Stats
	Sched  sched.Stats
	Energy power.Breakdown

	MeasuredCycles int64 // DRAM cycles

	// SteppedCycles is the number of measurement-window cycles the run loop
	// actually ticked in this process (for a resumed run, only those after
	// the resume point); the rest were proven eventless and skipped. It
	// describes the run loop, not the simulated machine: stored results do
	// not carry it, and the equivalence tests zero it before comparing.
	SteppedCycles int64

	CheckErr error
}

// EnergyPerAccess is nJ per serviced DRAM access in the window.
func (r Result) EnergyPerAccess() float64 { return r.Energy.PerAccess(r.DRAM.Accesses()) }

// SkipRate reports cycles simulated / cycles elapsed — NOT the fraction
// skipped: 1.0 means every cycle was stepped (no skipping at all), 0.2
// means four fifths of the window was skipped. Lower is faster.
func (r Result) SkipRate() float64 {
	if r.MeasuredCycles == 0 {
		return 0
	}
	return float64(r.SteppedCycles) / float64(r.MeasuredCycles)
}

// System is a fully wired simulated machine.
type System struct {
	cfg    Config
	tp     timing.Params
	geom   dram.Geometry
	mapper sched.Mapper

	devs   []*dram.Device
	ctrls  []*sched.Controller
	slices []*cache.Slice
	cores  []*cpu.Core

	now     int64
	stepped int64 // cycles ticked since beginMeasure or restore (the rest were skipped)
	nextID  int64

	// hot identifies the component that most recently forced a step
	// (demanded its NextEvent cycle immediately). Active components tend to
	// stay active for runs of cycles, so NextEvent probes it first and
	// skips the full scan while it keeps answering "now". Purely an
	// optimization: any component answering "now" forces a step regardless
	// of the others. Stored as a concrete kind+index pair rather than an
	// interface so the per-cycle probe is a direct call.
	hotKind int8 // hotNone, or the component list hotIdx indexes
	hotIdx  int

	// Measurement baseline (beginMeasure). Carried in snapshots so a resumed
	// run windows its Result identically to the cold run.
	inMeasure bool
	start     snapshot
}

// hot-component kinds (System.hotKind).
const (
	hotNone = int8(iota)
	hotCore
	hotSlice
	hotCtrl
)

// coreBaseStride separates core footprints in physical memory (8 GB apart).
const coreBaseStride = 1 << 33

// NewSystem wires a system from a config.
func NewSystem(cfg Config) (*System, error) {
	cfg = cfg.WithDefaults()
	nCores := len(cfg.Workload.Benchmarks)
	if nCores == 0 {
		return nil, fmt.Errorf("sim: workload %q has no benchmarks", cfg.Workload.Name)
	}

	tp := timing.DDR3(timing.Config{
		Density:   cfg.Density,
		Retention: cfg.Retention,
		Mode:      cfg.Mechanism.RefMode(),
	})
	if cfg.AdjustTiming != nil {
		cfg.AdjustTiming(&tp)
	}
	geom := dram.Default()
	geom.SubarraysPerBank = cfg.SubarraysPerBank

	s := &System{cfg: cfg, tp: tp, geom: geom,
		mapper: sched.Mapper{Channels: cfg.Channels, Geom: geom}}

	schedCfg := cfg.Sched
	schedCfg.OpenRow = cfg.OpenRow
	for ch := 0; ch < cfg.Channels; ch++ {
		dev, err := dram.New(geom, tp, dram.Options{SARP: cfg.Mechanism.SARP(), Check: cfg.Check})
		if err != nil {
			return nil, err
		}
		ctrl := sched.NewController(dev, schedCfg, nil)
		seed := cfg.Seed*7919 + int64(ch)
		if cfg.Policy != nil {
			ctrl.SetPolicy(cfg.Policy(ctrl, seed))
		} else {
			ctrl.SetPolicy(core.New(cfg.Mechanism, ctrl, seed))
		}
		s.devs = append(s.devs, dev)
		s.ctrls = append(s.ctrls, ctrl)
	}

	for i, prof := range cfg.Workload.Benchmarks {
		port := &memPort{sys: s, core: i}
		slice := cache.NewSlice(cfg.Cache, port)
		gen := trace.New(prof, cfg.Seed*1_000_003+int64(i))
		c := cpu.New(i, cfg.CPU, gen, prof.MaxOutstanding, uint64(i+1)*coreBaseStride, slice)
		s.slices = append(s.slices, slice)
		s.cores = append(s.cores, c)
	}
	return s, nil
}

// memPort adapts a cache slice to one controller per channel.
type memPort struct {
	sys  *System
	core int
}

// ReadLine implements cache.Backend.
func (p *memPort) ReadLine(addr uint64, onDone func(now int64)) bool {
	s := p.sys
	ch, da := s.mapper.Map(addr)
	s.nextID++
	req := s.ctrls[ch].NewRequest()
	req.ID, req.Core, req.Addr, req.OnComplete = s.nextID, p.core, da, onDone
	req.Tag = addr // pre-mapping address: snapshots re-link onDone through it
	return s.ctrls[ch].EnqueueRead(req, s.now)
}

// WriteLine implements cache.Backend.
func (p *memPort) WriteLine(addr uint64) bool {
	s := p.sys
	ch, da := s.mapper.Map(addr)
	s.nextID++
	req := s.ctrls[ch].NewRequest()
	req.ID, req.Core, req.IsWrite, req.Addr = s.nextID, p.core, true, da
	return s.ctrls[ch].EnqueueWrite(req, s.now)
}

// Step advances the whole system one DRAM cycle, ticking every component.
func (s *System) Step() {
	t := s.now
	for _, sl := range s.slices {
		sl.Tick(t)
	}
	for _, c := range s.cores {
		c.Tick(t)
	}
	for _, ctrl := range s.ctrls {
		ctrl.Tick(t)
	}
	s.now++
	s.stepped++
}

// NextEvent returns the earliest cycle in [s.Now(), limit] at which any
// component's Tick could do something beyond the linear accounting its Skip
// replays. If the answer exceeds s.Now(), every cycle before it is provably
// eventless: no core can retire, issue, or receive data, no cache slice has
// a delivery or retry due, no controller can issue a demand command or
// complete a read, and no refresh policy can act — so the whole window can
// be skipped without changing a single observable bit.
func (s *System) NextEvent(limit int64) int64 {
	switch s.hotKind {
	case hotCore:
		if s.cores[s.hotIdx].NextEvent(s.now) <= s.now {
			return s.now
		}
	case hotSlice:
		if s.slices[s.hotIdx].NextEvent(s.now) <= s.now {
			return s.now
		}
	case hotCtrl:
		if s.ctrls[s.hotIdx].NextEvent(s.now) <= s.now {
			return s.now
		}
	}
	t := limit
	for i, c := range s.cores {
		if e := c.NextEvent(s.now); e < t {
			if e <= s.now {
				s.hotKind, s.hotIdx = hotCore, i
				return s.now
			}
			t = e
		}
	}
	for i, sl := range s.slices {
		if e := sl.NextEvent(s.now); e < t {
			if e <= s.now {
				s.hotKind, s.hotIdx = hotSlice, i
				return s.now
			}
			t = e
		}
	}
	for i, ctrl := range s.ctrls {
		if e := ctrl.NextEvent(s.now); e < t {
			if e <= s.now {
				s.hotKind, s.hotIdx = hotCtrl, i
				return s.now
			}
			t = e
		}
	}
	if t < s.now {
		t = s.now
	}
	return t
}

// SkipTo advances the clock to cycle t (> s.Now()) without ticking,
// replaying each component's per-cycle accounting for the elided window.
// The caller must have established via NextEvent that the window [now, t)
// is eventless.
func (s *System) SkipTo(t int64) {
	skip := t - s.now
	if skip <= 0 {
		return
	}
	for _, c := range s.cores {
		c.Skip(skip)
	}
	for _, ctrl := range s.ctrls {
		ctrl.Skip(s.now, t)
	}
	s.now = t
}

// stepSelective advances one DRAM cycle ticking only the components that
// have an event at it; everything else gets its one elided Tick replayed by
// Skip. Each phase evaluates NextEvent at its own position in the cycle, so
// a component's decision sees exactly the state its Tick would have seen in
// the plain stepper: a slice decides from top-of-cycle state, a core sees
// hit callbacks the slice phase just delivered, a controller sees the
// enqueues the core phase just made (and completion callbacks an earlier
// controller's tick routed across channels). It returns the number of
// Ticks it avoided — zero means the cycle was saturated and selectivity
// bought nothing.
func (s *System) stepSelective() int {
	t := s.now
	avoided := 0
	for _, sl := range s.slices {
		if sl.NextEvent(t) <= t {
			sl.Tick(t)
		}
	}
	for _, c := range s.cores {
		if e := c.NextEvent(t); e <= t {
			c.Tick(t)
		} else {
			c.Skip(1)
			if e != math.MaxInt64 {
				// A compute-bursting core's Tick (CPUPerDRAM full retire/
				// dispatch rounds) was avoided. A stalled core (MaxInt64)
				// is not counted: its Tick is already a two-compare fast
				// path, so avoiding it pays for nothing.
				avoided++
			}
		}
	}
	for _, ctrl := range s.ctrls {
		if ctrl.NextEvent(t) <= t {
			ctrl.Tick(t)
		} else {
			ctrl.Skip(t, t+1)
			avoided++
		}
	}
	s.now++
	s.stepped++
	return avoided
}

// Saturation fallback parameters. A skip of at least worthwhileSkip cycles
// is what actually pays for RunTo's scanning; when none has appeared for
// saturatedAfter consecutive stepped cycles — and the selective steps in
// between are not avoiding any expensive Ticks either — RunTo runs
// blindWindow plain Steps with no scanning at all, then probes again.
// Plain stepping is the reference behavior, so the fallback is exact by
// construction; it only defers the detection of the next skippable window
// by at most blindWindow cycles. (A stickier fallback — growing the window
// while probes come up dry — was measured and rejected: even all-intensive
// DSARP runs keep ~10% of cycles skippable in short bursts, and losing
// them costs more than the per-cycle scans save.)
const (
	worthwhileSkip = 4
	saturatedAfter = 48
	blindWindow    = 32
)

// ErrInterrupted is returned by Run when Config.Stop flips true before
// the measurement window completes: the simulation was cut off by a
// watchdog (or a shutdown) and produced no result.
var ErrInterrupted = errors.New("sim: run interrupted")

// stopPollEvery spaces out Stop polls: one atomic load per this many run
// loop iterations, so the abort check is invisible in benchmarks while a
// wedged simulation still notices its watchdog within microseconds.
const stopPollEvery = 4096

// stopped reports whether a cooperative abort was requested.
func (s *System) stopped() bool {
	return s.cfg.Stop != nil && s.cfg.Stop.Load()
}

// RunTo advances the system to cycle end, returning early (with s.now <
// end) if Config.Stop flips true. Every call starts with fresh saturation
// state; that state only decides between stepping and skipping, never
// what the machine computes.
func (s *System) RunTo(end int64) {
	sat, poll := 0, 0
	for s.now < end {
		if poll++; poll >= stopPollEvery {
			poll = 0
			if s.stopped() {
				return
			}
		}
		if t := s.NextEvent(end); t > s.now {
			if t-s.now >= worthwhileSkip {
				sat = 0
			}
			s.SkipTo(t)
			if s.now < end {
				// The skip landed on the window's bounding event; step it
				// without paying for a scan that would just confirm it.
				s.stepSelective()
			}
			continue
		}
		if s.stepSelective() == 0 {
			sat += 4 // nothing avoided at all: saturate faster
		} else {
			sat++
		}
		if sat >= saturatedAfter {
			// Saturation fallback: a blind window of plain Steps with no
			// scanning, then stay wary until a real skip lands.
			sat = saturatedAfter / 2
			for i := 0; i < blindWindow && s.now < end; i++ {
				s.Step()
			}
		}
	}
}

// Now returns the current DRAM cycle.
func (s *System) Now() int64 { return s.now }

type snapshot struct {
	cores []cpu.Stats
	cache []cache.Stats
	dram  dram.Stats
	sched sched.Stats
}

func (s *System) snap() snapshot {
	sn := snapshot{}
	for _, c := range s.cores {
		sn.cores = append(sn.cores, c.Stats())
	}
	for _, sl := range s.slices {
		sn.cache = append(sn.cache, sl.Stats())
	}
	for _, d := range s.devs {
		sn.dram.Add(d.Stats())
	}
	for _, c := range s.ctrls {
		sn.sched.Add(c.Stats())
	}
	return sn
}

// beginMeasure records the measurement baseline at the warmup boundary;
// result() subtracts it. The baseline travels inside snapshots so a
// resumed run windows its Result identically to the cold run.
func (s *System) beginMeasure() {
	s.start = s.snap()
	s.stepped = 0
	s.inMeasure = true
}

// result assembles the windowed Result; beginMeasure must have run and the
// clock must stand at the end of the measurement window.
func (s *System) result() Result {
	cfg := s.cfg
	end := s.snap()
	res := Result{
		Mechanism:      s.ctrls[0].Policy().Name(),
		Workload:       cfg.Workload.Name,
		DRAM:           end.dram.Sub(s.start.dram),
		Sched:          end.sched.Sub(s.start.sched),
		MeasuredCycles: cfg.Measure,
		SteppedCycles:  s.stepped,
	}
	for i := range s.cores {
		cs := cpu.Stats{
			Retired:      end.cores[i].Retired - s.start.cores[i].Retired,
			CPUCycles:    end.cores[i].CPUCycles - s.start.cores[i].CPUCycles,
			Loads:        end.cores[i].Loads - s.start.cores[i].Loads,
			Stores:       end.cores[i].Stores - s.start.cores[i].Stores,
			MemStallBeat: end.cores[i].MemStallBeat - s.start.cores[i].MemStallBeat,
		}
		res.Cores = append(res.Cores, cs)
		res.IPC = append(res.IPC, cs.IPC())

		cc := cache.Stats{
			Accesses:   end.cache[i].Accesses - s.start.cache[i].Accesses,
			Hits:       end.cache[i].Hits - s.start.cache[i].Hits,
			Misses:     end.cache[i].Misses - s.start.cache[i].Misses,
			MSHRMerges: end.cache[i].MSHRMerges - s.start.cache[i].MSHRMerges,
			Writebacks: end.cache[i].Writebacks - s.start.cache[i].Writebacks,
		}
		res.Cache = append(res.Cache, cc)
		mpki := 0.0
		if cs.Retired > 0 {
			mpki = float64(cc.Misses) / float64(cs.Retired) * 1000
		}
		res.MPKI = append(res.MPKI, mpki)
	}

	res.Energy = power.Default().Compute(res.DRAM, s.tp, cfg.Measure, s.geom.Ranks*cfg.Channels)
	if cfg.Check {
		for _, d := range s.devs {
			if ck := d.Checker(); ck != nil && ck.Err() != nil {
				res.CheckErr = ck.Err()
				break
			}
		}
	}
	return res
}

// Run executes warmup + measurement and returns the windowed result. If
// Config.Stop flips true before the measurement window completes, Run
// returns ErrInterrupted and no Result.
func Run(cfg Config) (Result, error) {
	return RunWithCheckpoints(cfg, 0, nil)
}

// Checkpointer receives snapshots as a run crosses checkpoint boundaries.
// The data is a self-contained snap container (see System.Snapshot); cycle
// is the DRAM cycle the snapshot's clock stands at.
type Checkpointer func(cycle int64, data []byte)

// RunWithCheckpoints is Run with resumable checkpoints: after a cold
// warmup it hands sink the warmup-boundary snapshot, then — if every > 0 —
// further snapshots at cycles Warmup + k*every strictly inside the
// measurement window. A checkpointed run's Result is bit-identical to the
// plain run's in every model field. Configurations whose state cannot
// serialize (protocol checker attached, non-serializable custom policy)
// silently run without checkpoints.
func RunWithCheckpoints(cfg Config, every int64, sink Checkpointer) (Result, error) {
	cfg = cfg.WithDefaults()
	s, err := NewSystem(cfg)
	if err != nil {
		return Result{}, err
	}
	s.RunTo(cfg.Warmup)
	if s.now < cfg.Warmup {
		return Result{}, ErrInterrupted
	}
	s.beginMeasure()
	if sink != nil && s.CanSnapshot() {
		sink(s.now, s.Snapshot())
	}
	return s.runWindow(every, sink)
}

// ResumeRun continues a run from a snapshot taken by a checkpointed run of
// a config identical up to Measure (the snapshot is agnostic to the
// measurement length, enabling measure-extension reuse). The resumed run's
// Result is bit-identical to an uninterrupted run's in every model field;
// its SteppedCycles counts only the cycles after the resume point.
// every/sink take further checkpoints exactly as RunWithCheckpoints would.
func ResumeRun(cfg Config, data []byte, every int64, sink Checkpointer) (Result, error) {
	cfg = cfg.WithDefaults()
	s, err := RestoreSystem(cfg, data)
	if err != nil {
		return Result{}, err
	}
	end := cfg.Warmup + cfg.Measure
	if !s.inMeasure || s.now < cfg.Warmup || s.now >= end {
		return Result{}, fmt.Errorf("sim: snapshot at cycle %d outside measurement window [%d, %d)",
			s.now, cfg.Warmup, end)
	}
	return s.runWindow(every, sink)
}

// runWindow runs the rest of the measurement window as RunTo segments
// that end on the checkpoint cycles Warmup + k*every (k >= 1) lying after
// the current clock and strictly inside the window, handing sink a
// snapshot at each. The schedule depends only on the config, so cold and
// resumed runs write the same snapshot set; the segmenting is invisible to
// the machine. Stop is also checked at every boundary, since a segment
// shorter than stopPollEvery iterations never polls it.
func (s *System) runWindow(every int64, sink Checkpointer) (Result, error) {
	end := s.cfg.Warmup + s.cfg.Measure
	if sink != nil && every > 0 && s.CanSnapshot() {
		for c := s.cfg.Warmup + ((s.now-s.cfg.Warmup)/every+1)*every; c < end; c += every {
			if s.RunTo(c); s.now < c || s.stopped() {
				return Result{}, ErrInterrupted
			}
			sink(c, s.Snapshot())
		}
	}
	if s.RunTo(end); s.now < end {
		return Result{}, ErrInterrupted
	}
	return s.result(), nil
}
