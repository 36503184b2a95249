package sim

import (
	"testing"

	"dsarp/internal/core"
	"dsarp/internal/timing"
	"dsarp/internal/workload"
)

// BenchmarkStep measures the raw simulator throughput (DRAM cycles per
// second of host time) for an 8-core system under DSARP — the cost that
// bounds how large an experiment campaign can run.
func BenchmarkStep(b *testing.B) {
	wl := workload.IntensiveMixes(1, 8, 1)[0]
	s, err := NewSystem(Config{
		Workload:  wl,
		Mechanism: core.KindDSARP,
		Density:   timing.Gb32,
		Seed:      1,
	}.WithDefaults())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkRunPerMechanism measures a short end-to-end run per mechanism.
func BenchmarkRunPerMechanism(b *testing.B) {
	wl := workload.IntensiveMixes(1, 4, 1)[0]
	for _, k := range []core.Kind{core.KindNoRef, core.KindREFab, core.KindREFpb, core.KindDSARP} {
		k := k
		b.Run(k.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := Run(Config{
					Workload:  wl,
					Mechanism: k,
					Density:   timing.Gb32,
					Seed:      1,
					Warmup:    5_000,
					Measure:   20_000,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngines compares the cycle oracle against the clock-skipping
// run loop across workload intensities; the frac_simulated metric is the
// fraction of cycles the run loop actually simulated (1.0 = no skipping).
func BenchmarkEngines(b *testing.B) {
	lib := workload.NonIntensive()
	cases := []struct {
		name string
		wl   workload.Workload
	}{
		{"alone", workload.Workload{Name: "alone", Benchmarks: lib[len(lib)-1:]}},
		{"idleheavy", workload.Workload{Name: "idleheavy", Benchmarks: lib[len(lib)-4:]}},
		{"intensive", workload.IntensiveMixes(1, 4, 1)[0]},
	}
	for _, tc := range cases {
		cfg := Config{
			Workload:  tc.wl,
			Mechanism: core.KindREFab,
			Density:   timing.Gb32,
			Seed:      1,
			Warmup:    10_000,
			Measure:   100_000,
		}
		b.Run(tc.name+"/cycle", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cycleOracle(b, cfg, nil, 0, nil)
			}
		})
		b.Run(tc.name+"/event", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.SkipRate(), "frac_simulated")
			}
		})
	}
}
