package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dsarp/internal/core"
	"dsarp/internal/timing"
	"dsarp/internal/workload"
)

// cycleOracle is the per-cycle reference stepper the production run loop
// is checked against: every component ticks on every DRAM cycle and
// nothing is skipped. It runs cfg on a fresh machine, or from the snapshot
// from if that is non-nil, and hands sink (if non-nil) a snapshot at the
// warmup boundary and at every Warmup + k*every cycle inside the
// measurement window, the schedule RunWithCheckpoints follows.
func cycleOracle(t testing.TB, cfg Config, from []byte, every int64, sink Checkpointer) Result {
	t.Helper()
	cfg = cfg.WithDefaults()
	var s *System
	var err error
	if from == nil {
		s, err = NewSystem(cfg)
	} else {
		s, err = RestoreSystem(cfg, from)
	}
	if err != nil {
		t.Fatalf("cycle oracle: %v", err)
	}
	for s.now < cfg.Warmup {
		s.Step()
	}
	if !s.inMeasure {
		s.beginMeasure()
		if sink != nil {
			sink(s.now, s.Snapshot())
		}
	}
	end := cfg.Warmup + cfg.Measure
	for s.now < end {
		s.Step()
		if sink != nil && every > 0 && s.now < end && (s.now-cfg.Warmup)%every == 0 {
			sink(s.now, s.Snapshot())
		}
	}
	return s.result()
}

// sameModel reports whether two Results agree in every model field:
// everything except SteppedCycles, which describes the run loop.
func sameModel(a, b Result) bool {
	a.SteppedCycles, b.SteppedCycles = 0, 0
	return reflect.DeepEqual(a, b)
}

// runAgainstOracle executes cfg under the cycle oracle and the production
// run loop and asserts the Results are identical bit for bit in every
// model field. It returns the production result for callers that want the
// skip rate.
func runAgainstOracle(t *testing.T, name string, cfg Config) Result {
	t.Helper()
	want := cycleOracle(t, cfg, nil, 0, nil)
	got, err := Run(cfg)
	if err != nil {
		t.Fatalf("%s: run: %v", name, err)
	}
	if !sameModel(want, got) {
		t.Errorf("%s: run loop diverged from the cycle oracle:\n oracle: %+v\n run:    %+v", name, want, got)
	}
	return got
}

// TestEngineEquivalenceAllMechanisms runs the full matrix of the paper's 13
// mechanism configurations under the cycle oracle and the run loop and
// requires byte-equal Results: same IPC, MPKI, per-core stats, DRAM command
// counts, controller stats (latency sums included), and energy.
func TestEngineEquivalenceAllMechanisms(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-simulation equivalence matrix")
	}
	for _, k := range core.Kinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			runAgainstOracle(t, k.String(), Config{
				Workload:  smallWorkload(),
				Mechanism: k,
				Density:   timing.Gb32,
				Seed:      7,
				Warmup:    8_000,
				Measure:   30_000,
			})
		})
	}
}

// TestEngineEquivalenceSweepPoints covers the evaluation's sensitivity-sweep
// configurations: the Table 4 tFAW/tRRD points, the Table 5 subarray counts,
// the Table 6 64 ms retention, the D4 open-row ablation, and a single-channel
// system.
func TestEngineEquivalenceSweepPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-simulation equivalence sweep")
	}
	base := func() Config {
		return Config{
			Workload:  smallWorkload(),
			Mechanism: core.KindDSARP,
			Density:   timing.Gb32,
			Seed:      5,
			Warmup:    6_000,
			Measure:   24_000,
		}
	}
	cases := map[string]func(*Config){
		"tfaw5": func(c *Config) {
			c.AdjustTiming = func(p *timing.Params) { p.TFAW = 5; p.TRRD = 1 }
		},
		"tfaw30": func(c *Config) {
			c.AdjustTiming = func(p *timing.Params) { p.TFAW = 30; p.TRRD = 6 }
		},
		"subs1":       func(c *Config) { c.SubarraysPerBank = 1 },
		"subs64":      func(c *Config) { c.SubarraysPerBank = 64 },
		"retention64": func(c *Config) { c.Retention = timing.Retention64ms },
		"openrow":     func(c *Config) { c.OpenRow = true },
		"1channel":    func(c *Config) { c.Channels = 1 },
		"checker": func(c *Config) {
			c.Check = true
			c.Mechanism = core.KindDARP
		},
	}
	for name, mod := range cases {
		name, mod := name, mod
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := base()
			mod(&cfg)
			runAgainstOracle(t, name, cfg)
		})
	}
}

// TestEngineEquivalenceFuzz drives the oracle and the run loop over seeded
// random configurations — mechanism x density x workload intensity x
// channel count — and requires identical Results for every draw. Any divergence means a
// NextEvent implementation overshot a real event.
func TestEngineEquivalenceFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-simulation fuzz")
	}
	const draws = 12
	rng := rand.New(rand.NewSource(20260730))
	kinds := core.Kinds()
	densities := []timing.Density{timing.Gb8, timing.Gb16, timing.Gb32}
	for i := 0; i < draws; i++ {
		cfg := Config{
			Mechanism: kinds[rng.Intn(len(kinds))],
			Density:   densities[rng.Intn(len(densities))],
			Channels:  1 + rng.Intn(2),
			Seed:      rng.Int63n(1 << 30),
			Warmup:    2_000 + rng.Int63n(4_000),
			Measure:   10_000 + rng.Int63n(15_000),
		}
		cores := 2 + rng.Intn(3)
		switch rng.Intn(3) {
		case 0: // all-intensive
			cfg.Workload = workload.IntensiveMixes(1, cores, rng.Int63())[0]
		case 1: // idle-heavy: non-intensive benchmarks only
			lib := workload.NonIntensive()
			wl := workload.Workload{Name: fmt.Sprintf("fuzz-light%d", i)}
			for c := 0; c < cores; c++ {
				wl.Benchmarks = append(wl.Benchmarks, lib[rng.Intn(len(lib))])
			}
			cfg.Workload = wl
		default: // mixed category
			mixes := workload.Mixes(1, cores, rng.Int63())
			cfg.Workload = mixes[rng.Intn(len(mixes))]
		}
		name := fmt.Sprintf("draw%02d_%v_%v_ch%d_%s",
			i, cfg.Mechanism, cfg.Density, cfg.Channels, cfg.Workload.Name)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			runAgainstOracle(t, name, cfg)
		})
	}
}

// TestEngineEquivalenceSaturated pins the stepper-fallback regime: all-
// intensive workloads keep nearly every cycle event-bearing, so the run
// loop spends most of its time in selective stepping and the blind-window
// fallback — exactly the paths the saturation-hot-path optimizations
// (incremental FR-FCFS candidate registers, SoA DRAM timing state, in-Tick
// core fast-forward) rewrite. The run loop must match the oracle across the
// refresh mechanisms with the most per-cycle machinery, at 8-Gb and 32-Gb
// densities, one- and two-channel, and under the open-row ablation.
func TestEngineEquivalenceSaturated(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-simulation saturated equivalence matrix")
	}
	base := func(cores int, seed int64) Config {
		return Config{
			Workload:  workload.IntensiveMixes(1, cores, seed)[0],
			Mechanism: core.KindDSARP,
			Density:   timing.Gb32,
			Seed:      seed,
			Warmup:    6_000,
			Measure:   30_000,
		}
	}
	cases := map[string]func() Config{
		"dsarp_4core": func() Config { return base(4, 21) },
		"dsarp_8core": func() Config { return base(8, 22) },
		"darp_4core": func() Config {
			c := base(4, 23)
			c.Mechanism = core.KindDARP
			return c
		},
		"refpb_4core": func() Config {
			c := base(4, 24)
			c.Mechanism = core.KindREFpb
			return c
		},
		"sarppb_4core": func() Config {
			c := base(4, 25)
			c.Mechanism = core.KindSARPpb
			return c
		},
		"dsarp_8gb": func() Config {
			c := base(4, 26)
			c.Density = timing.Gb8
			return c
		},
		"dsarp_1channel": func() Config {
			c := base(4, 27)
			c.Channels = 1
			return c
		},
		"dsarp_openrow": func() Config {
			c := base(4, 28)
			c.OpenRow = true
			return c
		},
		"dsarp_checker": func() Config {
			c := base(4, 29)
			c.Check = true
			return c
		},
	}
	for name, mk := range cases {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res := runAgainstOracle(t, name, mk())
			if res.SkipRate() < 0.5 {
				t.Errorf("%s: skip rate %.2f — this config is not saturated enough to pin the stepper fallback",
					name, res.SkipRate())
			}
		})
	}
}

// TestEventEngineSkipsIdleHeavy pins the point of the clock-skipping run
// loop: on a workload dominated by compute (non-intensive benchmarks), most
// cycles are provably eventless and must be skipped, not stepped.
func TestEventEngineSkipsIdleHeavy(t *testing.T) {
	lib := workload.NonIntensive()
	res := runAgainstOracle(t, "idle-heavy", Config{
		Workload:  workload.Workload{Name: "idleheavy", Benchmarks: lib[len(lib)-4:]},
		Mechanism: core.KindREFab,
		Density:   timing.Gb32,
		Seed:      11,
		Warmup:    5_000,
		Measure:   30_000,
	})
	if res.SkipRate() > 0.5 {
		t.Errorf("idle-heavy skip rate %.2f: run loop stepped %d of %d cycles, want < 50%%",
			res.SkipRate(), res.SteppedCycles, res.MeasuredCycles)
	}
}
