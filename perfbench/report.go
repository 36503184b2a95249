package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// metricDef names one metric and its unit, exactly as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run prints, on every workload.
// Host CPU time unless the README marks them otherwise.
var endToEnd = []metricDef{
	{"sim_mcycles_per_s", "Mcycle/s"},
	{"allocs_per_sim", "count"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
	{"ok_frac", "ratio"},
	{"warm_cpu_p50_ms", "ms"},
	{"cold_cpu_p50_ms", "ms"},
	{"resume_cpu_p50_ms", "ms"},
	{"requests_per_cpu_s", "req/cpu-s"},
	{"table2_cold_cpu_s", "s"},
	{"table2_warm_cpu_s", "s"},
}

// perLayer are the metrics every traced run prints. README.md marks which
// are host time and which are simulated time (deterministic for a seed).
var perLayer = []metricDef{
	{"trace.next_calls", "count"},
	{"trace.next_ns", "ns"},
	{"cpu.tick_self_ns_per_cycle", "ns"},
	{"cpu.ipc_mean", "ratio"},
	{"cpu.mem_stall_frac", "ratio"},
	{"cache.access_calls", "count"},
	{"cache.access_ns", "ns"},
	{"cache.tick_ns_per_cycle", "ns"},
	{"cache.hit_rate", "ratio"},
	{"cache.mpki", "1/kinstr"},
	{"sched.enqueue_calls", "count"},
	{"sched.enqueue_ns", "ns"},
	{"sched.tick_self_ns_per_cycle", "ns"},
	{"sched.read_latency_cycles", "cycles"},
	{"sched.write_mode_frac", "ratio"},
	{"sched.refresh_slot_frac", "ratio"},
	{"core.policy_calls", "count"},
	{"core.policy_ns", "ns"},
	{"dram.row_hit_rate", "ratio"},
	{"dram.refab_per_mcycle", "1/Mcycle"},
	{"dram.refpb_per_mcycle", "1/Mcycle"},
	{"sim.frac_stepped", "ratio"},
	{"sim.trace_overhead", "ratio"},
	{"snap.snapshot_ms", "ms"},
	{"snap.restore_ms", "ms"},
	{"snap.kb", "KiB"},
	{"exp.sims_computed", "count"},
	{"exp.store_hits", "count"},
	{"exp.ckpt_written", "count"},
	{"exp.ckpt_restored", "count"},
	{"exp.ckpt_mb_written", "MiB"},
	{"exp.decode_us", "us"},
	{"store.get_us", "us"},
	{"store.result_mb", "MiB"},
	{"store.snapshot_mb", "MiB"},
	{"store.hits", "count"},
	{"store.misses", "count"},
	{"serve.source_share.computed", "ratio"},
	{"serve.source_share.store", "ratio"},
	{"serve.source_share.memory", "ratio"},
	{"serve.source_share.peer", "ratio"},
	{"serve.server_p50_ms.computed", "ms"},
	{"serve.server_p50_ms.store", "ms"},
	{"serve.server_p50_ms.memory", "ms"},
	{"serve.server_p50_ms.peer", "ms"},
	{"serve.wall_p50_ms.warm", "ms"},
	{"serve.wall_p50_ms.cold", "ms"},
	{"serve.wall_p50_ms.resume", "ms"},
	{"serve.warm_p99_ms", "ms"},
	{"serve.http_overhead_p50_ms", "ms"},
	{"serve.refused", "count"},
	{"fleet.dispatch_p50_ms.computed", "ms"},
	{"fleet.dispatch_p50_ms.store", "ms"},
	{"fleet.makespan_cold_s", "s"},
	{"fleet.makespan_warm_s", "s"},
	{"fleet.affine_frac", "ratio"},
	{"fleet.retries", "count"},
	{"ring.push_ok", "count"},
	{"ring.fetch_hits", "count"},
	{"journal.kb", "KiB"},
}

// value is one reported metric with the number of samples behind it.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// report collects a run's metrics, its operation counts and its failures.
type report struct {
	workload string
	seed     int64
	seconds  int
	trace    bool

	metrics   map[string]value
	attempted int64
	failed    int64
	failures  []string

	// digest hashes the encoded Results the run checked, in a fixed
	// order per workload, so two revisions can show the model unchanged.
	digest      []byte
	digestItems int
}

func newReport(workload string, seed int64, seconds int, trace bool) *report {
	return &report{workload: workload, seed: seed, seconds: seconds, trace: trace,
		metrics: map[string]value{}}
}

// catalog returns the metrics a run in this mode must print.
func (r *report) catalog() []metricDef {
	if r.trace {
		return perLayer
	}
	return endToEnd
}

// set records a metric. The unit comes from the catalog.
func (r *report) set(name string, v float64, samples int) {
	for _, cat := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range cat {
			if d.name == name {
				r.metrics[name] = value{Value: v, Unit: d.unit, Samples: samples}
				return
			}
		}
	}
	panic("perfbench: metric " + name + " is not in the catalog")
}

// op counts one attempted operation; a non-nil err counts it as failed.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, err.Error())
		}
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: %v\n", err)
	}
}

// check counts one correctness check as an operation.
func (r *report) check(ok bool, format string, args ...any) {
	if ok {
		r.op(nil)
		return
	}
	r.op(fmt.Errorf("check: "+format, args...))
}

// addDigest folds one labelled encoded Result into the model digest.
func (r *report) addDigest(label string, encoded []byte) {
	h := sha256.New()
	h.Write(r.digest)
	fmt.Fprintf(h, "%s\x00%d\x00", label, len(encoded))
	h.Write(encoded)
	r.digest = h.Sum(nil)
	r.digestItems++
}

// resetPeakRSS returns freed heap to the system and resets the process's
// resident-set peak (VmHWM) to its current resident set.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak rss: %w", err)
	}
	return nil
}

// peakRSS reads the process's resident-set peak (VmHWM) in MiB.
func peakRSS() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}

// machine describes where and how a result was measured.
type machine struct {
	Revision   string `json:"revision"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
}

func describeMachine() machine {
	m := machine{
		Revision:   revision(),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// revision names the measured source: a SHA-256 over the Go sources and
// go.mod files under the working directory, so an uncommitted tree reads
// differently from the commit it started from.
func revision() string {
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(data))
		h.Write(data)
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// write prints the metric table and the protocol to w, saves the full
// record under dir, and prints the result line last.
func (r *report) write(w io.Writer, dir string, m machine) error {
	for _, d := range r.catalog() {
		if _, ok := r.metrics[d.name]; !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
	}
	fmt.Fprintf(w, "workload=%s seed=%d seconds=%d trace=%v revision=%s go=%s nproc=%d gomaxprocs=%d cpu=%q\n",
		r.workload, r.seed, r.seconds, r.trace, m.Revision, m.GoVersion, m.NumCPU, m.GOMAXPROCS, m.CPUModel)
	fmt.Fprintf(w, "model_digest=sha256:%s over %d results\n", hex.EncodeToString(r.digest), r.digestItems)
	out := map[string]value{}
	for _, d := range r.catalog() {
		v := r.metrics[d.name]
		fmt.Fprintf(w, "%-32s %14.6g %-10s n=%d\n", d.name, v.Value, v.Unit, v.Samples)
		out[d.name] = v
	}
	record := map[string]any{
		"workload": r.workload, "seed": r.seed, "seconds": r.seconds, "trace": r.trace,
		"machine": m, "model_digest": "sha256:" + hex.EncodeToString(r.digest),
		"attempted": r.attempted, "failed": r.failed, "failures": r.failures,
		"metrics": out,
	}
	data, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.workload, r.seed, btoi(r.trace))
	if err := os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644); err != nil {
		return err
	}

	type short struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]short `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]short{}}
	for k, v := range out {
		last.Metrics[k] = short{v.Value, v.Unit}
	}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
