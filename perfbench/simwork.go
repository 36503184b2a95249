package main

import (
	"bytes"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"dsarp/internal/core"
	"dsarp/internal/exp"
	"dsarp/internal/sim"
	"dsarp/internal/timing"
	"dsarp/internal/workload"
)

// Window lengths of the timed simulator workloads, in DRAM cycles. At 32Gb
// one measurement window spans about 230 refresh intervals (tREFI is 2600
// cycles), and one pass over the saturated set takes about a second.
const (
	simWarmup  = 50_000
	simMeasure = 600_000

	// The traced run uses a shorter window.
	traceWarmup  = 20_000
	traceMeasure = 300_000
)

// satMechanisms cover the rank-level, round-robin per-bank and DARP/SARP
// refresh code paths.
var satMechanisms = []core.Kind{core.KindREFab, core.KindREFpb, core.KindDSARP}

// saturatedConfigs is the sim-saturated input set: the all-intensive 4-core
// mix of the repository's BenchmarkSaturated under each of satMechanisms.
// The seed sets the access streams; the mix stays fixed so host cost is
// comparable across seeds.
func saturatedConfigs(seed, warmup, measure int64) []sim.Config {
	wl := workload.IntensiveMixes(1, 4, 42)[0]
	var cfgs []sim.Config
	for _, k := range satMechanisms {
		cfgs = append(cfgs, sim.Config{Workload: wl, Mechanism: k, Density: timing.Gb32,
			Seed: seed, Warmup: warmup, Measure: measure})
	}
	return cfgs
}

// idleConfigs is the sim-idle input set: the four least intensive
// non-intensive profiles under REFab, as in BenchmarkIdleHeavy.
func idleConfigs(seed, warmup, measure int64) []sim.Config {
	lib := workload.NonIntensive()
	wl := workload.Workload{Name: "idleheavy", Benchmarks: lib[len(lib)-4:]}
	return []sim.Config{{Workload: wl, Mechanism: core.KindREFab, Density: timing.Gb32,
		Seed: seed, Warmup: warmup, Measure: measure}}
}

// simSubSeeds is how many access-stream seeds a sim phase cycles through:
// pass k runs the set under sub-seed k mod simSubSeeds, so a run's median
// averages over several inputs and every input still repeats.
const simSubSeeds = 3

// subSeed derives the k-th access-stream seed of a workload seed.
func subSeed(seed int64, k int) int64 { return seed*1000 + int64(k%simSubSeeds) }

// simPhase times sim.Run over an input set, in one goroutine, in whole
// passes: pass k runs every config under sub-seed k mod simSubSeeds. It
// reports the median over passes of the simulated cycles per CPU second
// of sim.Run, and its heap allocations per run, and checks that every
// repetition of a config encodes identically. CPU time (user+sys of the
// process, so the garbage collector's threads count) leaves out the time a
// shared host takes the vCPU away.
type simPhase struct {
	rep        *report
	cfgs       []sim.Config
	first      map[string][]byte // label -> encoding of its first run
	throughput []float64         // Mcycle per CPU second, one per pass
	allocs     uint64
	sims       int
	passes     int
}

func newSimPhase(rep *report, cfgs []sim.Config) *simPhase {
	return &simPhase{rep: rep, cfgs: cfgs, first: map[string][]byte{}}
}

// run makes whole passes for about d, at least one.
func (p *simPhase) run(d time.Duration) error {
	start := time.Now()
	for once := true; once || time.Since(start) < d; once = false {
		p.pass()
	}
	return nil
}

func (p *simPhase) pass() {
	var cycles int64
	var cpu time.Duration
	for _, cfg := range p.cfgs {
		cfg.Seed = subSeed(cfg.Seed, p.passes)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := cpuTime()
		res, err := sim.Run(cfg)
		d := cpuTime() - t0
		runtime.ReadMemStats(&after)
		if err != nil {
			p.rep.op(fmt.Errorf("sim %v: %w", cfg.Mechanism, err))
			continue
		}
		enc, err := exp.EncodeResult(res)
		if err != nil {
			p.rep.op(fmt.Errorf("encode %v: %w", cfg.Mechanism, err))
			continue
		}
		p.rep.op(nil)
		cycles += cfg.Warmup + cfg.Measure
		cpu += d
		p.allocs += after.Mallocs - before.Mallocs
		p.sims++
		label := fmt.Sprintf("%s/%v/seed%d", cfg.Workload.Name, cfg.Mechanism, cfg.Seed)
		if p.first[label] == nil {
			p.first[label] = enc
			continue
		}
		p.rep.check(bytes.Equal(enc, p.first[label]), "repetition of %s encodes differently", label)
	}
	p.passes++
	if cpu > 0 {
		p.throughput = append(p.throughput, float64(cycles)/cpu.Seconds()/1e6)
	}
}

// finish runs a pass for every sub-seed not yet run, folds the first run
// of every config into the model digest and reports the phase's metrics.
func (p *simPhase) finish() error {
	for p.passes < simSubSeeds {
		p.pass()
	}
	if p.sims == 0 {
		return fmt.Errorf("sim phase: no simulation succeeded")
	}
	for pass := 0; pass < simSubSeeds; pass++ {
		for _, cfg := range p.cfgs {
			label := fmt.Sprintf("%s/%v/seed%d", cfg.Workload.Name, cfg.Mechanism, subSeed(cfg.Seed, pass))
			p.rep.addDigest(label, p.first[label])
		}
	}
	p.rep.set("sim_mcycles_per_s", median(p.throughput), len(p.throughput))
	p.rep.set("allocs_per_sim", float64(p.allocs)/float64(p.sims), p.sims)
	return nil
}

// cpuTime is the CPU time the process has used, user and system, over
// all its threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
