package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"dsarp/internal/core"
	"dsarp/internal/sim"
)

// TestTracedRebuildMatchesSimRun: the traced machine is the machine sim.Run
// simulates, for every mechanism, so its layer timings describe it.
func TestTracedRebuildMatchesSimRun(t *testing.T) {
	for _, k := range core.Kinds() {
		for _, cfgs := range [][]sim.Config{saturatedConfigs(7, 2_000, 8_000), idleConfigs(7, 2_000, 8_000)} {
			cfg := cfgs[0]
			cfg.Mechanism = k
			res, err := sim.Run(cfg)
			if err != nil {
				t.Fatalf("%v: %v", k, err)
			}
			var lc layerClock
			_, got, _, err := runTraced(cfg, &lc)
			if err != nil {
				t.Fatalf("%v: %v", k, err)
			}
			if err := traceMatches(got, res); err != nil {
				t.Error(err)
			}
			if lc.cycles != cfg.Warmup+cfg.Measure || lc.sampledCycles == 0 || lc.nextCalls == 0 {
				t.Errorf("%v: traced %d cycles (%d sampled), %d trace draws", k, lc.cycles, lc.sampledCycles, lc.nextCalls)
			}
		}
	}
}

// TestPercentileRefusesThinTail: a percentile needs tailSamples samples
// beyond it.
func TestPercentileRefusesThinTail(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i)
		}
		return out
	}
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{{999, 99, false}, {1000, 99, true}, {19, 50, false}, {20, 50, true}} {
		v, err := percentile(xs(c.n), c.p)
		if (err == nil) != c.ok {
			t.Errorf("p%g of %d samples: err = %v, want ok=%v", c.p, c.n, err, c.ok)
		}
		if c.ok && c.p == 99 && v != 990 {
			t.Errorf("p99 of 1..1000 = %g, want 990", v)
		}
		if c.ok && c.p == 50 && v != 10 {
			t.Errorf("p50 of 1..20 = %g, want 10", v)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	les := []float64{1, 2, 4}
	if got := histQuantile(0.5, les, []float64{0, 10, 10}); got != 1.5 {
		t.Errorf("median inside the second bucket = %g, want 1.5", got)
	}
	if got := histQuantile(0.5, les, []float64{0, 0, 0}); got != 0 {
		t.Errorf("empty histogram = %g, want 0", got)
	}
}

// TestMetricNamesMatchBenchmarkJSON: every metric a run prints has a
// well-formed name and is declared, with its unit, in BENCHMARK.json, and
// BENCHMARK.json declares nothing the benchmark does not print.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, c := range []struct {
		trace    bool
		declared []struct{ Name, Unit string }
	}{{false, bench.EndToEnd}, {true, bench.PerLayer}} {
		rep := newReport("sim-idle", 1, 1, c.trace)
		for _, d := range rep.catalog() {
			rep.set(d.name, 1.5, 1)
		}
		var out bytes.Buffer
		if err := rep.write(&out, t.TempDir(), machine{}); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var last struct {
			Correct   bool
			Attempted int64
			Failed    int64
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("last line is not the result object: %v", err)
		}
		units := map[string]string{}
		for _, d := range c.declared {
			units[d.Name] = d.Unit
		}
		for name, v := range last.Metrics {
			if !valid.MatchString(name) {
				t.Errorf("metric name %q is malformed", name)
			}
			if u, ok := units[name]; !ok || u != v.Unit {
				t.Errorf("printed %s [%s]; BENCHMARK.json declares [%s] (declared: %v)", name, v.Unit, u, ok)
			}
		}
		if len(last.Metrics) != len(c.declared) {
			t.Errorf("trace=%v prints %d metrics, BENCHMARK.json declares %d", c.trace, len(last.Metrics), len(c.declared))
		}
	}
}

// TestSessionSpecsAreSeeded: a session's specs are a function of the run
// seed and the session index, and another seed gives a held-out set.
func TestSessionSpecsAreSeeded(t *testing.T) {
	key := func(seed int64, k int) string {
		var keys []string
		for _, s := range sessionSpecs(seed, k) {
			keys = append(keys, s.Key().String())
		}
		return strings.Join(keys, ",")
	}
	if key(1, 0) == "" || key(1, 0) != key(1, 0) {
		t.Fatal("session 0 of seed 1 is empty or not reproducible")
	}
	if key(1, 0) == key(1, 1) || key(1, 0) == key(2, 0) {
		t.Error("sessions of one seed, or the same session of two seeds, share their specs")
	}
}
