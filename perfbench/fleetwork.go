package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dsarp/internal/exp"
	"dsarp/internal/fleet"
	"dsarp/internal/serve"
)

// Shape of the fleet phase.
const (
	fleetWorkers  = 2 // in-process dsarpd workers
	fleetReplicas = 2 // peer replication factor R
	// Warm passes per repetition: a warm pass is short, so several per
	// cold pass steady its median.
	fleetWarmPasses = 3
	fleetMinReps    = simSubSeeds
)

// fleetOptions is the scale the CI service and shard-failover smokes run
// the fleet at (cmd/fleet -percat 1 -sensitivity 1 -warmup 2000 -measure
// 8000, default cores and densities): Table 2 is 93 specs.
func fleetOptions(seed int64) exp.Options {
	o := exp.Defaults()
	o.PerCategory = 1
	o.Sensitivity = 1
	o.Warmup = 2_000
	o.Measure = 8_000
	o.Seed = seed
	return o
}

// dispatchClock is the orchestrator's HTTP transport: it times every
// /v1/sim round trip, body included, by the source the worker reports.
type dispatchClock struct {
	inner http.RoundTripper
	mu    sync.Mutex
	lat   map[string][]float64
}

func (d *dispatchClock) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := d.inner.RoundTrip(req)
	if err != nil || req.URL.Path != "/v1/sim" {
		return resp, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(data))
	var reply struct {
		Source string `json:"source"`
	}
	if resp.StatusCode == http.StatusOK && json.Unmarshal(data, &reply) == nil {
		d.mu.Lock()
		d.lat[reply.Source] = append(d.lat[reply.Source], ms)
		d.mu.Unlock()
	}
	return resp, nil
}

// fleetStack is fleetWorkers peer-replicated workers, each with its own
// store, and the transport the orchestrators share.
type fleetStack struct {
	dir     string
	workers []*serveStack
	urls    []string
	clock   *dispatchClock
	client  *http.Client
	passes  int
}

func startFleet(dir string, seed int64) (*fleetStack, error) {
	f := &fleetStack{dir: dir, clock: &dispatchClock{inner: &http.Transport{MaxIdleConnsPerHost: 4},
		lat: map[string][]float64{}}}
	f.client = &http.Client{Transport: f.clock}
	var lns []net.Listener
	for i := 0; i < fleetWorkers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns = append(lns, ln)
		f.urls = append(f.urls, "http://"+ln.Addr().String())
	}
	for i, ln := range lns {
		peer := &serve.PeerConfig{Self: f.urls[i], Peers: f.urls, Replicas: fleetReplicas, Seed: seed}
		w, err := startStack(filepath.Join(dir, fmt.Sprintf("worker%d", i)), seed, ln,
			stackConfig{workers: 1, peer: peer})
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			f.close()
			return nil, err
		}
		f.workers = append(f.workers, w)
	}
	return f, nil
}

// close stops every worker and removes the fleet's directory.
func (f *fleetStack) close() error {
	var err error
	for _, w := range f.workers {
		if werr := w.close(); err == nil {
			err = werr
		}
	}
	f.clock.inner.(*http.Transport).CloseIdleConnections()
	if rerr := os.RemoveAll(f.dir); err == nil {
		err = rerr
	}
	return err
}

// orchestrator returns a fresh orchestrator, with its own journal when
// journaled is set.
func (f *fleetStack) orchestrator(seed int64, journaled bool) (*fleet.Orchestrator, string, error) {
	f.passes++
	journal := ""
	if journaled {
		journal = filepath.Join(f.dir, fmt.Sprintf("pass%d.journal", f.passes))
	}
	o, err := fleet.New(fleet.Config{Workers: f.urls, Client: f.client, Concurrency: fleetWorkers,
		Replicas: fleetReplicas, Journal: journal, Seed: seed})
	return o, journal, err
}

// passTime is how long one Table 2 pass took: its makespan and the CPU
// time the process (orchestrator and workers) spent in it.
type passTime struct{ wall, cpu time.Duration }

// pass runs table2 once through a fresh orchestrator and checks the table
// against the local reference.
func (f *fleetStack) pass(rep *report, seed int64, want string, journaled bool) (passTime, fleet.Stats, string, error) {
	o, journal, err := f.orchestrator(seed, journaled)
	if err != nil {
		return passTime{}, fleet.Stats{}, "", err
	}
	r := exp.NewRunner(fleetOptions(seed)) // enumeration and assembly only
	cpu0 := cpuTime()
	start := time.Now()
	table, err := o.RunExperiment(context.Background(), r, "table2")
	t := passTime{wall: time.Since(start), cpu: cpuTime() - cpu0}
	if err != nil {
		return passTime{}, fleet.Stats{}, "", fmt.Errorf("fleet table2: %w", err)
	}
	rep.op(nil)
	rep.check(table.String() == want, "fleet table2 differs from the local run")
	return t, o.Stats(), journal, nil
}

// fleetPhase repeats a cold Table 2 pass on fresh workers followed by
// fleetWarmPasses warm passes, each through a fresh orchestrator.
// Repetition k runs the enumeration of sub-seed k mod simSubSeeds, so a
// run's medians cover several mix draws.
type fleetPhase struct {
	rep  *report
	dir  string
	seed int64
	want map[int64]string // local table per sub-seed
	// journaled gives every orchestrator a run journal, as cmd/fleet
	// -journal does. Timed runs leave it off, as the CI shard-failover
	// smoke runs cmd/fleet.
	journaled bool

	reps               int
	cold, warm         []passTime
	dispatched, affine int64
	retries            int64
	pushOK, fetchHits  float64
	journalBytes       int64
	dispatch           map[string][]float64
}

func newFleetPhase(rep *report, dir string, seed int64) *fleetPhase {
	return &fleetPhase{rep: rep, dir: dir, seed: seed, want: map[int64]string{},
		dispatch: map[string][]float64{}}
}

// run makes whole repetitions for about d, at least one.
func (p *fleetPhase) run(d time.Duration) error {
	start := time.Now()
	for once := true; once || time.Since(start) < d; once = false {
		if err := p.repetition(); err != nil {
			return err
		}
	}
	return nil
}

// reference returns the local table of a sub-seed, computing it once.
func (p *fleetPhase) reference(seed int64) (string, error) {
	if want, ok := p.want[seed]; ok {
		return want, nil
	}
	opts := fleetOptions(seed)
	opts.Parallelism = fleetWorkers
	local, err := exp.NewRunner(opts).RunExperiment("table2")
	if err != nil {
		return "", fmt.Errorf("local table2: %w", err)
	}
	p.want[seed] = local.String()
	return p.want[seed], nil
}

// repetition runs one cold pass and fleetWarmPasses warm passes on a fresh
// fleet.
func (p *fleetPhase) repetition() error {
	seed := subSeed(p.seed, p.reps)
	want, err := p.reference(seed)
	if err != nil {
		return err
	}
	f, err := startFleet(filepath.Join(p.dir, fmt.Sprintf("rep%d", p.reps)), seed)
	if err != nil {
		return err
	}
	p.reps++
	err = p.passes(f, seed, want)
	if cerr := f.close(); err == nil {
		err = cerr
	}
	return err
}

func (p *fleetPhase) passes(f *fleetStack, seed int64, want string) error {
	for pass := 0; pass <= fleetWarmPasses; pass++ {
		t, st, journal, err := f.pass(p.rep, seed, want, p.journaled)
		if err != nil {
			return err
		}
		if pass == 0 {
			p.cold = append(p.cold, t)
			if fi, err := os.Stat(journal); journal != "" && err == nil {
				p.journalBytes += fi.Size()
			}
		} else {
			p.warm = append(p.warm, t)
		}
		p.dispatched += st.Dispatched
		p.affine += st.Affine
		p.retries += st.Retries
	}
	// Drain the workers so every replica push has landed before counting.
	for _, w := range f.workers {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		err := w.srv.Drain(ctx)
		cancel()
		if err != nil {
			return fmt.Errorf("drain worker: %w", err)
		}
		samples, err := scrape(f.client, w.url+"/metrics")
		if err != nil {
			return err
		}
		p.pushOK += sum(samples, "dsarp_peer_push_ok_total")
		p.fetchHits += sum(samples, "dsarp_peer_fetch_hits_total")
	}
	f.clock.mu.Lock()
	for src, l := range f.clock.lat {
		p.dispatch[src] = append(p.dispatch[src], l...)
	}
	f.clock.lat = map[string][]float64{}
	f.clock.mu.Unlock()
	return nil
}

// finish runs repetitions up to fleetMinReps, folds sub-seed 0's table
// into the model digest and reports the median CPU time of a cold and of a
// warm pass. CPU time, unlike the makespan, leaves out the time a shared
// host takes the vCPUs away.
func (p *fleetPhase) finish() error {
	for p.reps < fleetMinReps {
		if err := p.repetition(); err != nil {
			return err
		}
	}
	p.rep.addDigest("fleet/table2", []byte(p.want[subSeed(p.seed, 0)]))
	p.rep.set("table2_cold_cpu_s", medianSeconds(p.cold, cpuOf), len(p.cold))
	p.rep.set("table2_warm_cpu_s", medianSeconds(p.warm, cpuOf), len(p.warm))
	return nil
}

func cpuOf(t passTime) time.Duration  { return t.cpu }
func wallOf(t passTime) time.Duration { return t.wall }

// medianSeconds is the median, in seconds, of one field of ts.
func medianSeconds(ts []passTime, field func(passTime) time.Duration) float64 {
	xs := make([]float64, len(ts))
	for i, t := range ts {
		xs[i] = field(t).Seconds()
	}
	return median(xs)
}
