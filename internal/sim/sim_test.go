package sim

import (
	"errors"
	"sync/atomic"
	"testing"

	"dsarp/internal/core"
	"dsarp/internal/timing"
	"dsarp/internal/workload"
)

func smallWorkload() workload.Workload {
	lib := workload.Library()
	return workload.Workload{
		Name:       "smoke",
		Category:   100,
		Benchmarks: lib[:4], // four intensive benchmarks
	}
}

func runSmoke(t *testing.T, k core.Kind, density timing.Density) Result {
	t.Helper()
	res, err := Run(Config{
		Workload:  smallWorkload(),
		Mechanism: k,
		Density:   density,
		Seed:      1,
		Warmup:    20_000,
		Measure:   60_000,
		Check:     true,
	})
	if err != nil {
		t.Fatalf("Run(%v): %v", k, err)
	}
	if res.CheckErr != nil {
		t.Fatalf("Run(%v): protocol violations: %v", k, res.CheckErr)
	}
	return res
}

func sumIPC(r Result) float64 {
	var s float64
	for _, v := range r.IPC {
		s += v
	}
	return s
}

func TestSmokeAllMechanisms(t *testing.T) {
	for _, k := range core.Kinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			res := runSmoke(t, k, timing.Gb32)
			if got := sumIPC(res); got <= 0 {
				t.Fatalf("%v: no forward progress, sum IPC = %v", k, got)
			}
			if res.DRAM.Reads == 0 {
				t.Fatalf("%v: no DRAM reads served", k)
			}
			if k != core.KindNoRef && res.DRAM.RefABs+res.DRAM.RefPBs == 0 {
				t.Fatalf("%v: no refreshes issued", k)
			}
		})
	}
}

func TestRefreshHurtsAndMechanismsRecover(t *testing.T) {
	noref := sumIPC(runSmoke(t, core.KindNoRef, timing.Gb32))
	refab := sumIPC(runSmoke(t, core.KindREFab, timing.Gb32))
	dsarp := sumIPC(runSmoke(t, core.KindDSARP, timing.Gb32))
	t.Logf("sumIPC: NoREF=%.3f REFab=%.3f DSARP=%.3f", noref, refab, dsarp)
	if refab >= noref {
		t.Errorf("REFab (%.3f) should underperform NoREF (%.3f)", refab, noref)
	}
	if dsarp <= refab {
		t.Errorf("DSARP (%.3f) should outperform REFab (%.3f)", dsarp, refab)
	}
}

// TestRunStopInterrupts: a pre-tripped Stop flag aborts the run with
// ErrInterrupted and no Result — the watchdog contract.
func TestRunStopInterrupts(t *testing.T) {
	stop := &atomic.Bool{}
	stop.Store(true)
	cfg := Config{
		Workload:  smallWorkload(),
		Mechanism: core.KindREFab,
		Seed:      1,
		Warmup:    20_000,
		Measure:   80_000,
		Stop:      stop,
	}
	if _, err := Run(cfg); !errors.Is(err, ErrInterrupted) {
		t.Errorf("Run with tripped Stop = %v, want ErrInterrupted", err)
	}
}

// TestRunNilStopUnaffected: the zero Config change — no Stop flag — still
// completes normally (the poll must be nil-safe).
func TestRunNilStopUnaffected(t *testing.T) {
	res := runSmoke(t, core.KindREFab, timing.Gb8)
	if res.MeasuredCycles == 0 {
		t.Fatal("no measurement window")
	}
}
