package main

import (
	"fmt"
	"reflect"
	"time"

	"dsarp/internal/cache"
	"dsarp/internal/core"
	"dsarp/internal/cpu"
	"dsarp/internal/dram"
	"dsarp/internal/sched"
	"dsarp/internal/sim"
	"dsarp/internal/timing"
	"dsarp/internal/trace"
)

// sampleMask selects the traced cycles: a cycle is timed when a hash of its
// index has these bits clear (one cycle in 8). Every call is counted on
// every cycle; only timing is sampled, which keeps the clock reads from
// dominating the run.
const sampleMask = 7

// layerClock accumulates call counts at every layer boundary and, on
// sampled cycles, the host time spent inside each boundary call and each
// Tick group.
type layerClock struct {
	sampled bool

	cycles, sampledCycles int64

	nextCalls, accessCalls, enqueueCalls, policyCalls int64
	nextTimed, accessTimed, enqueueTimed, policyTimed int64
	nextNs, accessNs, enqueueNs, policyNs             int64

	// Tick-group spans, and the boundary time spent inside them that is
	// charged to a child layer: cache accesses and trace draws inside the
	// core group, refresh-policy calls inside the controller group.
	sliceTickNs, coreTickNs, ctrlTickNs        int64
	accessInCoreNs, nextInCoreNs, policyInCtrl int64
}

// timed runs f, charging its duration to *ns when the cycle is sampled.
func (lc *layerClock) timed(ns, timedCalls *int64, f func()) {
	if !lc.sampled {
		f()
		return
	}
	t0 := time.Now()
	f()
	*ns += int64(time.Since(t0))
	*timedCalls++
}

// tracedGen wraps a trace.Generator.
type tracedGen struct {
	lc    *layerClock
	inner trace.Generator
}

func (g *tracedGen) Next() (a trace.Access) {
	g.lc.nextCalls++
	g.lc.timed(&g.lc.nextNs, &g.lc.nextTimed, func() { a = g.inner.Next() })
	return a
}

func (g *tracedGen) Name() string { return g.inner.Name() }

// tracedMem wraps a core's cpu.Memory port (its LLC slice).
type tracedMem struct {
	lc    *layerClock
	slice *cache.Slice
}

func (m *tracedMem) Access(now int64, addr uint64, write bool, tag uint64, onDone func(now int64)) (ok bool) {
	m.lc.accessCalls++
	m.lc.timed(&m.lc.accessNs, &m.lc.accessTimed, func() { ok = m.slice.Access(now, addr, write, tag, onDone) })
	return ok
}

// tracedPolicy wraps a sched.RefreshPolicy built by core.New.
type tracedPolicy struct {
	lc    *layerClock
	inner sched.RefreshPolicy
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) Tick(now int64, demandReady bool) (ok bool) {
	p.lc.policyCalls++
	p.lc.timed(&p.lc.policyNs, &p.lc.policyTimed, func() { ok = p.inner.Tick(now, demandReady) })
	return ok
}

func (p *tracedPolicy) RankBlocked(rank int) (b bool) {
	p.lc.policyCalls++
	p.lc.timed(&p.lc.policyNs, &p.lc.policyTimed, func() { b = p.inner.RankBlocked(rank) })
	return b
}

func (p *tracedPolicy) BankBlocked(rank, bank int) (b bool) {
	p.lc.policyCalls++
	p.lc.timed(&p.lc.policyNs, &p.lc.policyTimed, func() { b = p.inner.BankBlocked(rank, bank) })
	return b
}

func (p *tracedPolicy) NextDeadline(now int64) (t int64) {
	p.lc.policyCalls++
	p.lc.timed(&p.lc.policyNs, &p.lc.policyTimed, func() { t = p.inner.NextDeadline(now) })
	return t
}

func (p *tracedPolicy) Skip(from, to int64) {
	p.lc.policyCalls++
	p.lc.timed(&p.lc.policyNs, &p.lc.policyTimed, func() { p.inner.Skip(from, to) })
}

// tracedSystem is sim.NewSystem's machine rebuilt from the public
// constructors, with a traced boundary between every pair of layers. It
// steps every cycle, as sim's reference cycle engine does.
type tracedSystem struct {
	cfg    sim.Config
	mapper sched.Mapper
	devs   []*dram.Device
	ctrls  []*sched.Controller
	slices []*cache.Slice
	cores  []*cpu.Core
	now    int64
	nextID int64
	lc     *layerClock
}

// newTracedSystem mirrors sim.NewSystem: the same timing, geometry, seeds,
// address mapping and request-ID order. Its boundary counts and times
// accumulate in lc.
func newTracedSystem(cfg sim.Config, lc *layerClock) (*tracedSystem, error) {
	cfg = cfg.WithDefaults()
	if cfg.AdjustTiming != nil || cfg.Policy != nil || cfg.Check {
		return nil, fmt.Errorf("traced rebuild supports plain mechanism configs only")
	}
	if len(cfg.Workload.Benchmarks) == 0 {
		return nil, fmt.Errorf("workload %q has no benchmarks", cfg.Workload.Name)
	}
	tp := timing.DDR3(timing.Config{Density: cfg.Density, Retention: cfg.Retention,
		Mode: cfg.Mechanism.RefMode()})
	geom := dram.Default()
	geom.SubarraysPerBank = cfg.SubarraysPerBank
	s := &tracedSystem{cfg: cfg, mapper: sched.Mapper{Channels: cfg.Channels, Geom: geom}, lc: lc}

	schedCfg := cfg.Sched
	schedCfg.OpenRow = cfg.OpenRow
	for ch := 0; ch < cfg.Channels; ch++ {
		dev, err := dram.New(geom, tp, dram.Options{SARP: cfg.Mechanism.SARP()})
		if err != nil {
			return nil, err
		}
		ctrl := sched.NewController(dev, schedCfg, nil)
		ctrl.SetPolicy(&tracedPolicy{lc: s.lc, inner: core.New(cfg.Mechanism, ctrl, cfg.Seed*7919+int64(ch))})
		s.devs = append(s.devs, dev)
		s.ctrls = append(s.ctrls, ctrl)
	}
	for i, prof := range cfg.Workload.Benchmarks {
		slice := cache.NewSlice(cfg.Cache, &tracedPort{sys: s, core: i})
		gen := &tracedGen{lc: s.lc, inner: trace.New(prof, cfg.Seed*1_000_003+int64(i))}
		c := cpu.New(i, cfg.CPU, gen, prof.MaxOutstanding, uint64(i+1)<<33, &tracedMem{lc: s.lc, slice: slice})
		s.slices = append(s.slices, slice)
		s.cores = append(s.cores, c)
	}
	return s, nil
}

// tracedPort is the cache.Backend of one core: it maps a line address to
// its channel and enqueues it there, as sim's memory port does.
type tracedPort struct {
	sys  *tracedSystem
	core int
}

func (p *tracedPort) ReadLine(addr uint64, onDone func(now int64)) (ok bool) {
	s := p.sys
	ch, da := s.mapper.Map(addr)
	s.nextID++
	req := s.ctrls[ch].NewRequest()
	req.ID, req.Core, req.Addr, req.OnComplete = s.nextID, p.core, da, onDone
	req.Tag = addr
	s.lc.enqueueCalls++
	s.lc.timed(&s.lc.enqueueNs, &s.lc.enqueueTimed, func() { ok = s.ctrls[ch].EnqueueRead(req, s.now) })
	return ok
}

func (p *tracedPort) WriteLine(addr uint64) (ok bool) {
	s := p.sys
	ch, da := s.mapper.Map(addr)
	s.nextID++
	req := s.ctrls[ch].NewRequest()
	req.ID, req.Core, req.IsWrite, req.Addr = s.nextID, p.core, true, da
	s.lc.enqueueCalls++
	s.lc.timed(&s.lc.enqueueNs, &s.lc.enqueueTimed, func() { ok = s.ctrls[ch].EnqueueWrite(req, s.now) })
	return ok
}

// sampled reports whether cycle t is a timed cycle (a splitmix64 hash, so
// the sample does not alias with the machine's periodic behaviour).
func sampled(t int64) bool {
	z := uint64(t) + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return (z^z>>31)&sampleMask == 0
}

// step advances one DRAM cycle in sim's reference order: slices, cores,
// controllers. On sampled cycles each Tick group is timed, and the time of
// the boundary calls made inside it is recorded for self-time accounting.
func (s *tracedSystem) step() {
	t := s.now
	lc := s.lc
	lc.cycles++
	lc.sampled = sampled(t)
	if !lc.sampled {
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
		return
	}
	lc.sampledCycles++

	t0 := time.Now()
	for _, sl := range s.slices {
		sl.Tick(t)
	}
	t1 := time.Now()
	access0, next0 := lc.accessNs, lc.nextNs
	for _, c := range s.cores {
		c.Tick(t)
	}
	t2 := time.Now()
	lc.accessInCoreNs += lc.accessNs - access0
	lc.nextInCoreNs += lc.nextNs - next0
	policy0 := lc.policyNs
	for _, ctrl := range s.ctrls {
		ctrl.Tick(t)
	}
	t3 := time.Now()
	lc.policyInCtrl += lc.policyNs - policy0
	lc.sliceTickNs += int64(t1.Sub(t0))
	lc.coreTickNs += int64(t2.Sub(t1))
	lc.ctrlTickNs += int64(t3.Sub(t2))
	lc.sampled = false
	s.now++
}

// windowStats are the machine's counters over the measurement window, in
// the shape sim.Result carries them.
type windowStats struct {
	Cores []cpu.Stats
	Cache []cache.Stats
	DRAM  dram.Stats
	Sched sched.Stats
}

func (s *tracedSystem) counters() windowStats {
	var w windowStats
	for _, c := range s.cores {
		w.Cores = append(w.Cores, c.Stats())
	}
	for _, sl := range s.slices {
		w.Cache = append(w.Cache, sl.Stats())
	}
	for _, d := range s.devs {
		w.DRAM.Add(d.Stats())
	}
	for _, c := range s.ctrls {
		w.Sched.Add(c.Stats())
	}
	return w
}

func (w windowStats) sub(base windowStats) windowStats {
	out := windowStats{DRAM: w.DRAM.Sub(base.DRAM), Sched: w.Sched.Sub(base.Sched)}
	for i, c := range w.Cores {
		b := base.Cores[i]
		out.Cores = append(out.Cores, cpu.Stats{Retired: c.Retired - b.Retired,
			CPUCycles: c.CPUCycles - b.CPUCycles, Loads: c.Loads - b.Loads,
			Stores: c.Stores - b.Stores, MemStallBeat: c.MemStallBeat - b.MemStallBeat})
	}
	for i, c := range w.Cache {
		b := base.Cache[i]
		out.Cache = append(out.Cache, cache.Stats{Accesses: c.Accesses - b.Accesses,
			Hits: c.Hits - b.Hits, Misses: c.Misses - b.Misses,
			MSHRMerges: c.MSHRMerges - b.MSHRMerges, Writebacks: c.Writebacks - b.Writebacks})
	}
	return out
}

// resultStats extracts the same counters from a sim.Result.
func resultStats(r sim.Result) windowStats {
	return windowStats{Cores: r.Cores, Cache: r.Cache, DRAM: r.DRAM, Sched: r.Sched}
}

// runTraced runs cfg's warmup and measurement window on the traced
// machine, accumulating into lc, and returns the windowed counters and the
// host wall time.
func runTraced(cfg sim.Config, lc *layerClock) (*tracedSystem, windowStats, time.Duration, error) {
	cfg = cfg.WithDefaults()
	start := time.Now()
	s, err := newTracedSystem(cfg, lc)
	if err != nil {
		return nil, windowStats{}, 0, err
	}
	for s.now < cfg.Warmup {
		s.step()
	}
	base := s.counters()
	for s.now < cfg.Warmup+cfg.Measure {
		s.step()
	}
	return s, s.counters().sub(base), time.Since(start), nil
}

// traceMatches reports whether the traced machine's windowed counters equal
// sim.Run's for the same config; a mismatch means the trace describes a
// different machine.
func traceMatches(got windowStats, res sim.Result) error {
	want := resultStats(res)
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("traced rebuild of %s/%s diverges from sim.Run:\n got %+v\nwant %+v",
			res.Workload, res.Mechanism, got, want)
	}
	return nil
}
