// Command perfbench is the repository's benchmark: simulator throughput in
// the saturated and idle regimes, the CPU cost of a /v1/sim request by
// serving tier and of the fleet's Table 2, and a traced run that reports
// per-layer metrics, wall-clock latencies and makespans among them.
//
//	bash perfbench/run.sh --workload sim-saturated --seed 1 --seconds 36 --trace 0
//
// It runs from the repository root. Every run prints its metric table,
// machine and model digest, saves a record under .bench_build/results, and
// prints one JSON result object as its last line. See README.md beside
// this file for the workloads, metrics and the layer map.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"dsarp/internal/sim"
)

// scratchRoot holds everything a run writes, inside the checkout.
const scratchRoot = ".bench_build"

// A timed run has three phases: the sim phase on the workload's input set,
// then the serve-mixed sessions and the fleet's Table 2, so every workload
// prints every end-to-end metric. It measures in rounds, and each round
// gives every phase its share of the run's seconds: interleaving spreads a
// burst of host contention over all phases instead of one. The serve phase
// gets the largest share because every warm request it times comes after
// a cold and an extension request.
const rounds = 4

var shares = [3]float64{0.3, 0.5, 0.2} // sim, serve, fleet

// phase is one measured part of a run.
type phase interface {
	// run measures for about d, at least one unit of work.
	run(d time.Duration) error
	// finish runs what the phase's minimum still needs, checks the
	// outputs and reports the phase's metrics.
	finish() error
}

// workloadDef is one named benchmark workload: the input set of its sim
// phase. Building that set's machines, under every sub-seed, is its
// set-up.
type workloadDef struct {
	name    string
	configs func(seed, warmup, measure int64) []sim.Config
}

var workloads = []workloadDef{
	{"sim-saturated", saturatedConfigs},
	{"sim-idle", idleConfigs},
}

// env is what a workload run needs from the command line.
type env struct {
	seed   int64
	budget time.Duration
	dir    string // private scratch directory, removed after the run
}

// setupBatch set-ups are timed before the first round and after every
// round; setup_s is the median of all of them, in process CPU seconds.
const setupBatch = 7

// setup builds every machine the sim phase runs with sim.NewSystem.
func (wl *workloadDef) setup(seed int64) error {
	for k := 0; k < simSubSeeds; k++ {
		for _, cfg := range wl.configs(seed, simWarmup, simMeasure) {
			cfg.Seed = subSeed(cfg.Seed, k)
			if _, err := sim.NewSystem(cfg); err != nil {
				return fmt.Errorf("build %v machine: %w", cfg.Mechanism, err)
			}
		}
	}
	return nil
}

// timedRun measures wl in rounds and reports its end-to-end metrics.
// peak_rss_mb is the largest resident-set peak of the sim phase's rounds:
// the peak is reset, after returning freed memory to the system, right
// before each of them.
func timedRun(rep *report, wl *workloadDef, e env) error {
	var setups []float64
	setupWindow := func() error {
		// Return the memory the phases before left free, then fault some
		// back in with an untimed set-up, so background scavenging of that
		// memory does not land in the timed set-ups.
		debug.FreeOSMemory()
		for i := -1; i < setupBatch; i++ {
			runtime.GC() // every set-up starts from the same heap state
			start := cpuTime()
			if err := wl.setup(e.seed); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			if i >= 0 {
				setups = append(setups, (cpuTime() - start).Seconds())
			}
		}
		return nil
	}
	phases := []phase{
		newSimPhase(rep, wl.configs(e.seed, simWarmup, simMeasure)),
		newServePhase(rep, filepath.Join(e.dir, "serve"), e.seed),
		newFleetPhase(rep, filepath.Join(e.dir, "fleet"), e.seed),
	}
	share := func(i int) time.Duration {
		return time.Duration(shares[i] * float64(e.budget) / rounds)
	}
	if err := setupWindow(); err != nil {
		return err
	}
	peak := 0.0
	spent := make([]time.Duration, len(phases))
	for r := 0; r < rounds; r++ {
		for i, ph := range phases {
			if i == 0 {
				if err := resetPeakRSS(); err != nil {
					return err
				}
			}
			start := time.Now()
			if err := ph.run(share(i)); err != nil {
				return err
			}
			spent[i] += time.Since(start)
			if i == 0 {
				mb, err := peakRSS()
				if err != nil {
					return err
				}
				peak = max(peak, mb)
			}
		}
		if err := setupWindow(); err != nil {
			return err
		}
	}
	for i, ph := range phases {
		start := time.Now()
		if err := ph.finish(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "perfbench: phase %d: %.1fs in rounds, %.1fs to finish\n",
			i, spent[i].Seconds(), time.Since(start).Seconds())
	}
	rep.set("peak_rss_mb", peak, rounds)
	rep.set("setup_s", median(setups), len(setups))
	rep.set("ok_frac", float64(rep.attempted-rep.failed)/float64(max(rep.attempted, 1)), int(rep.attempted))
	return nil
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "sim-saturated", "workload to run")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 36, "seconds a timed run measures")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the timed one")
	flag.Parse()

	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traceFlag)
		return 2
	}
	dir, err := filepath.Abs(filepath.Join(scratchRoot, "tmp", fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid())))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	rep := newReport(*name, *seed, *seconds, *traceFlag == 1)
	e := env{seed: *seed, budget: time.Duration(*seconds) * time.Second, dir: dir}
	start := time.Now()
	if rep.trace {
		err = tracedRun(rep, wl, e)
	} else {
		err = timedRun(rep, wl, e)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s measured in %.1fs\n", *name, time.Since(start).Seconds())
	if err == nil {
		err = rep.write(os.Stdout, filepath.Join(scratchRoot, "results"), describeMachine())
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	return 0
}
