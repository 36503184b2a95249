package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dsarp/internal/exp"
	"dsarp/internal/serve"
	"dsarp/internal/store"
	"dsarp/internal/telemetry"
	"dsarp/internal/timing"
)

// Shape of the serve-mixed traffic. A session replays what the
// repository's own callers send: examples/client's sweep demo submits the
// Table 2 spec set (one mix per category, 2 cores, 8Gb) and is run twice,
// the second time served without a simulation; the CI service smoke does
// the same cold pass and warm rerun at a 2000+8000-cycle window. The third
// pass reruns every spec at twice its Measure, as BENCH_resume.json's
// measure-extension case does, so it resumes from the shorter run's
// warmup-boundary checkpoint. Every session therefore sends the same
// number of cold, warm and extension requests.
//
// The checkpoint spacing equals the fresh window, so a fresh spec writes
// only its warmup-boundary snapshot and an extension writes one periodic
// snapshot where the fresh window ended. A resume from a mid-window
// snapshot is left out: sim.ResumeRun from such a snapshot can return a
// Result whose stepped_cycles differs by a cycle from the uninterrupted
// run's, and a benchmark input must not fail. The result check stays
// exact.
const (
	sessionWarmup  = 2_000 // DRAM cycles, as the CI service smoke sends
	sessionMeasure = 8_000
	serveCkptEvery = sessionMeasure // extensions resume from the warmup boundary
	serveMinWarm   = 1000           // traced run: at least 10 samples lie beyond warm p99
	serveMinP50    = 20             // at least 10 samples lie beyond each p50
	serveDigestN   = 8              // cold results of session 0 folded into the model digest
)

// sessionOptions is the scale of examples/client's sweep demo at the CI
// smoke window. Session k of a run draws its mixes from its own seed.
func sessionOptions(seed int64) exp.Options {
	o := exp.Defaults()
	o.PerCategory = 1
	o.Cores = 2
	o.Densities = []timing.Density{timing.Gb8}
	o.Warmup = sessionWarmup
	o.Measure = sessionMeasure
	o.Seed = seed
	return o
}

// sessionSpecs is the spec set of session k of a run.
func sessionSpecs(seed int64, k int) []exp.SimSpec {
	return exp.NewRunner(sessionOptions(seed*1_000_000 + int64(k))).Table2Specs()
}

// serveStack is an in-process dsarpd wired as cmd/dsarpd wires one: a
// store-backed runner with ephemeral results and periodic checkpoints,
// behind a loopback listener.
type serveStack struct {
	dir    string
	st     *store.Store
	runner *exp.Runner
	srv    *serve.Server
	reg    *telemetry.Registry
	http   *http.Server
	url    string
	served chan error
}

// serveOptions is the runner scale of the serving and fleet stacks. Every
// spec they serve is fully resolved, so it only sets their defaults.
func serveOptions(seed int64) exp.Options {
	o := sessionOptions(seed)
	o.Sensitivity = 1
	return o
}

// stackConfig selects how a serving stack is wired.
type stackConfig struct {
	workers     int               // concurrent simulations
	checkpoints bool              // periodic checkpoints, as dsarpd -checkpoint-every
	peer        *serve.PeerConfig // replicated warm-store tier, as dsarpd -peers
}

// startStack opens a store in dir and serves it on ln (a fresh loopback
// listener when nil).
func startStack(dir string, seed int64, ln net.Listener, cfg stackConfig) (*serveStack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st, err := store.Open(dir, store.Options{Generation: exp.SchemaVersion})
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	opts := serveOptions(seed)
	opts.Store = st
	opts.EphemeralResults = true
	if cfg.checkpoints {
		opts.Checkpoints = true
		opts.CheckpointEvery = serveCkptEvery
	}
	if ln == nil {
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, fmt.Errorf("listen: %w", err)
		}
	}
	s := &serveStack{dir: dir, st: st, runner: exp.NewRunner(opts), reg: telemetry.NewRegistry(),
		url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	s.srv = serve.New(serve.Config{Runner: s.runner, Workers: cfg.workers, Peer: cfg.peer, Metrics: s.reg})
	s.http = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// startServe starts the serve-mixed stack.
func startServe(dir string, seed int64) (*serveStack, error) {
	return startStack(dir, seed, nil, stackConfig{workers: 1, checkpoints: true})
}

// close stops the listener, drains the server and deletes the store.
func (s *serveStack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	if derr := s.srv.Drain(ctx); err == nil {
		err = derr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// simReply is the POST /v1/sim response.
type simReply struct {
	Key         string          `json:"key"`
	Source      string          `json:"source"`
	ResumedFrom int64           `json:"resumed_from"`
	Result      json.RawMessage `json:"result"`
}

// extension is a served measure-extension result, checked against a local
// cold run once the phase is over.
type extension struct {
	spec exp.SimSpec
	sum  [32]byte
}

// servePhase drives serving stacks with one closed-loop client, so every
// request is the only one in flight and the process CPU time it spans is
// its own cost: the client, HTTP, the server, the store and the
// simulation. CPU time leaves out the time a shared host takes the vCPUs
// away, which made wall-clock latencies of the same code read up to three
// times apart from one run to the next. Each run call starts a fresh
// stack, so every chunk of the phase begins with an empty store and the
// same amount of state.
type servePhase struct {
	rep  *report
	dir  string
	seed int64
	// keep leaves the last stack open after run, so the traced run can
	// read its counters.
	keep bool
	// minWarm is the number of warm requests a run call serves at least.
	minWarm int

	chunks   int
	sessions int
	stack    *serveStack
	client   *http.Client
	ref      map[string][32]byte  // key -> hash of the first result the current stack served
	lat      map[string][]float64 // wall-clock latency ms by class: warm, cold, resume
	cpu      map[string][]float64 // process CPU ms by class
	rates    []float64            // requests per CPU second, one per chunk
	sources  map[string]int
	requests int
	extended []extension
	digest   [serveDigestN][]byte // first cold results of session 0
}

func newServePhase(rep *report, dir string, seed int64) *servePhase {
	return &servePhase{rep: rep, dir: dir, seed: seed,
		lat: map[string][]float64{}, cpu: map[string][]float64{}, sources: map[string]int{}}
}

// run serves closed-loop sessions on a fresh stack for about d, and until
// every latency class has the samples its percentiles need. It starts no
// session after that but finishes the one it is in, so every chunk sends
// cold, warm and extension requests in equal numbers.
func (p *servePhase) run(d time.Duration) error {
	stack, err := startServe(filepath.Join(p.dir, fmt.Sprintf("chunk%d", p.chunks)), p.seed)
	if err != nil {
		return err
	}
	p.chunks++
	p.stack, p.ref = stack, map[string][32]byte{}
	p.client = &http.Client{}
	requests := p.requests
	cpu0 := cpuTime()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) || !p.enough() {
		if err = p.session(); err != nil {
			break
		}
	}
	p.rates = append(p.rates, float64(p.requests-requests)/(cpuTime()-cpu0).Seconds())
	if !p.keep || err != nil {
		if cerr := p.close(); err == nil {
			err = cerr
		}
	}
	return err
}

// close stops the current stack.
func (p *servePhase) close() error {
	p.client.CloseIdleConnections()
	return p.stack.close()
}

// session sends one session's cold pass, warm rerun and extension pass. It
// returns an error only when requests keep failing.
func (p *servePhase) session() error {
	k := p.sessions
	p.sessions++
	specs := sessionSpecs(p.seed, k)
	failures := 0
	for pass := 0; pass < 3; pass++ {
		for i, spec := range specs {
			if pass == 2 {
				spec.Measure *= 2
			}
			digest := -1
			if k == 0 && pass == 0 && i < serveDigestN {
				digest = i
			}
			err := p.request(spec, pass == 2, digest)
			p.rep.op(err)
			if err != nil {
				if failures++; failures > 10 {
					return fmt.Errorf("serve-mixed: too many failed requests: %w", err)
				}
			}
		}
	}
	return nil
}

// request sends one spec and checks its result against the first result
// the stack served for the same key.
func (p *servePhase) request(spec exp.SimSpec, extended bool, digest int) error {
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	cpu0 := cpuTime()
	start := time.Now()
	resp, err := p.client.Post(p.stack.url+"/v1/sim", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("POST /v1/sim: %w", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	cpuMs := float64((cpuTime() - cpu0).Nanoseconds()) / 1e6
	if err != nil {
		return fmt.Errorf("read /v1/sim reply: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /v1/sim: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var reply simReply
	if err := json.Unmarshal(data, &reply); err != nil {
		return fmt.Errorf("decode /v1/sim reply: %w", err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, reply.Result); err != nil {
		return fmt.Errorf("compact result: %w", err)
	}
	sum := sha256.Sum256(compact.Bytes())
	class := "warm"
	if reply.Source == exp.SourceComputed.String() {
		class = "cold"
		if reply.ResumedFrom > 0 {
			class = "resume"
		}
	}

	p.requests++
	p.sources[reply.Source]++
	p.lat[class] = append(p.lat[class], ms)
	p.cpu[class] = append(p.cpu[class], cpuMs)
	if want, ok := p.ref[reply.Key]; ok {
		if want != sum {
			return fmt.Errorf("check: %s result for %s differs from the first result served", reply.Source, reply.Key)
		}
		return nil
	}
	p.ref[reply.Key] = sum
	if extended {
		p.extended = append(p.extended, extension{spec, sum})
	}
	if digest >= 0 {
		p.digest[digest] = compact.Bytes()
	}
	return nil
}

// enough reports whether every latency class has the samples its
// percentiles need.
func (p *servePhase) enough() bool {
	return len(p.lat["warm"]) >= max(p.minWarm, serveMinP50) &&
		len(p.lat["cold"]) >= serveMinP50 && len(p.lat["resume"]) >= serveMinP50
}

// finish checks every extension against a local cold run of the same spec
// and reports the serve phase's metrics: the median CPU time of each class
// over the whole run, and the median over chunks of the request rate.
func (p *servePhase) finish() error {
	local := exp.NewRunner(exp.Options{Parallelism: runtime.GOMAXPROCS(0)})
	var specs []exp.SimSpec
	for _, ext := range p.extended {
		specs = append(specs, mustPrepare(local, ext.spec))
	}
	results, ok := local.RunAll(specs)
	p.rep.check(ok, "local cold runs of the extension specs failed")
	for i, spec := range specs {
		enc, err := exp.EncodeResult(results[spec.Key()])
		if err != nil {
			p.rep.op(err)
			continue
		}
		var compact bytes.Buffer
		json.Compact(&compact, enc)
		p.rep.check(sha256.Sum256(compact.Bytes()) == p.extended[i].sum,
			"resumed result for %s differs from a cold run", spec.Key())
	}
	for i, payload := range p.digest {
		p.rep.addDigest(fmt.Sprintf("serve/session0/spec%d", i), payload)
	}
	for _, class := range []string{"warm", "cold", "resume"} {
		name := class + "_cpu_p50_ms"
		v, err := percentile(p.cpu[class], 50)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		p.rep.set(name, v, len(p.cpu[class]))
	}
	p.rep.set("requests_per_cpu_s", median(p.rates), p.requests)
	return nil
}

// mustPrepare normalizes a spec the benchmark generated itself.
func mustPrepare(r *exp.Runner, s exp.SimSpec) exp.SimSpec {
	p, err := r.PrepareSpec(s)
	if err != nil {
		panic(fmt.Sprintf("perfbench: generated spec does not prepare: %v", err))
	}
	return p
}

// scrape fetches a Prometheus text exposition and returns every sample
// keyed by metric name, with its labels.
func scrape(client *http.Client, url string) ([]sample, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", url, resp.Status)
	}
	var out []sample
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		s := sample{name: line[:i], value: v, labels: map[string]string{}}
		if j := strings.IndexByte(s.name, '{'); j >= 0 {
			for _, kv := range strings.Split(strings.TrimSuffix(s.name[j+1:], "}"), ",") {
				if k, val, ok := strings.Cut(kv, "="); ok {
					s.labels[k] = strings.Trim(val, `"`)
				}
			}
			s.name = s.name[:j]
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// sample is one scraped series value.
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// sum adds the values of every sample with this name whose labels include
// the given pairs.
func sum(samples []sample, name string, labels ...string) float64 {
	total := 0.0
	for _, s := range samples {
		if s.name != name {
			continue
		}
		match := true
		for i := 0; i+1 < len(labels); i += 2 {
			if s.labels[labels[i]] != labels[i+1] {
				match = false
			}
		}
		if match {
			total += s.value
		}
	}
	return total
}

// serverP50 reads the median of dsarp_sim_seconds for one source, in ms.
func serverP50(samples []sample, source string) float64 {
	var les, cum []float64
	for _, s := range samples {
		if s.name != "dsarp_sim_seconds_bucket" || s.labels["source"] != source {
			continue
		}
		le, err := strconv.ParseFloat(s.labels["le"], 64)
		if s.labels["le"] == "+Inf" {
			le, err = math.Inf(1), nil
		}
		if err != nil {
			continue
		}
		les = append(les, le)
		cum = append(cum, s.value)
	}
	return histQuantile(0.5, les, cum) * 1000
}
