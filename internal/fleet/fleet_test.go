package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dsarp/internal/exp"
	"dsarp/internal/store"
)

func testConfig(urls ...string) Config {
	return Config{
		Workers:        urls,
		RequestTimeout: 2 * time.Minute,
		ProbeTimeout:   time.Second,
		HealthInterval: 100 * time.Millisecond,
		BaseBackoff:    20 * time.Millisecond,
		MaxBackoff:     300 * time.Millisecond,
		Seed:           1,
	}
}

func mustOrch(t *testing.T, cfg Config) *Orchestrator {
	t.Helper()
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func tinySpec(name string) exp.SimSpec {
	return canonical(exp.SimSpec{
		Name:           name,
		BenchmarkNames: []string{"h264.encode"},
		Mechanism:      "REFab",
		DensityGb:      8,
		Seed:           7,
	})
}

// canonical puts a spec in the form a worker keys its reply by; Run
// refuses replies under any other key.
func canonical(s exp.SimSpec) exp.SimSpec {
	p, err := exp.NewRunner(tinyOpts()).PrepareSpec(s)
	if err != nil {
		panic(err)
	}
	return p
}

// TestRunExperimentMatchesLocal: a two-worker fleet reproduces a registry
// experiment byte-identically to a single-node local run, with every spec
// accounted for.
func TestRunExperimentMatchesLocal(t *testing.T) {
	opts := tinyOpts()
	local := exp.NewRunner(opts)
	golden, err := local.RunExperiment("fig7")
	if err != nil {
		t.Fatal(err)
	}

	w1, w2 := startWorker(t, opts), startWorker(t, opts)
	o := mustOrch(t, testConfig(w1.url(), w2.url()))
	r := exp.NewRunner(opts) // enumeration/assembly only; runs nothing
	table, err := o.RunExperiment(context.Background(), r, "fig7")
	if err != nil {
		t.Fatal(err)
	}
	if table.String() != golden.String() {
		t.Errorf("fleet table diverged from local run:\n got:\n%s\nwant:\n%s", table, golden)
	}
	if n := r.SimsRun(); n != 0 {
		t.Errorf("assembly runner executed %d simulations, want 0", n)
	}
	e, _ := exp.LookupExperiment("fig7")
	st := o.Stats()
	if got, want := st.Dispatched+st.LocalHits, int64(len(e.Specs(r))); got != want {
		t.Errorf("%d specs satisfied, enumeration has %d", got, want)
	}
	if st.Failed != 0 {
		t.Errorf("%d permanent failures on a healthy fleet", st.Failed)
	}
}

// TestPermanentFailureFailsSpecNotRun: a 400 fails only the offending
// spec; every other spec still completes and is returned.
func TestPermanentFailureFailsSpecNotRun(t *testing.T) {
	w := startWorker(t, tinyOpts())
	o := mustOrch(t, testConfig(w.url()))

	bad := tinySpec("bad")
	bad.Mechanism = "MAGIC" // the worker's PrepareSpec rejects this: 400
	specs := []exp.SimSpec{tinySpec("ok-a"), bad, tinySpec("ok-b")}
	res, err := o.Run(context.Background(), "mixed", specs)

	var runErr *RunError
	if !errors.As(err, &runErr) {
		t.Fatalf("err = %v, want *RunError", err)
	}
	if len(runErr.Failed) != 1 || runErr.Failed[0].Index != 1 {
		t.Fatalf("failed = %+v, want exactly spec 1", runErr.Failed)
	}
	if !strings.Contains(runErr.Failed[0].Err.Error(), "400") {
		t.Errorf("failure not classified as a 400: %v", runErr.Failed[0].Err)
	}
	for _, i := range []int{0, 2} {
		if _, ok := res[specs[i].Key()]; !ok {
			t.Errorf("spec %d missing from results despite being valid", i)
		}
	}
	if o.Stats().Retries != 0 {
		t.Errorf("permanent failure was retried %d times", o.Stats().Retries)
	}
}

// TestNonCanonicalSpecRefusedUpFront: a spec a worker would answer under
// another key (library benchmark names, unset warmup or measure) fails at
// once, undispatched, even with unlimited retries; the others complete.
func TestNonCanonicalSpecRefusedUpFront(t *testing.T) {
	w := startWorker(t, tinyOpts())
	o := mustOrch(t, testConfig(w.url()))

	names := tinySpec("names")
	names.Benchmarks, names.BenchmarkNames = nil, []string{"h264.encode"}
	noWarmup := tinySpec("no-warmup")
	noWarmup.Warmup = 0
	specs := []exp.SimSpec{tinySpec("ok"), names, noWarmup}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := o.Run(ctx, "non-canonical", specs)

	var runErr *RunError
	if !errors.As(err, &runErr) {
		t.Fatalf("err = %v, want *RunError", err)
	}
	if len(runErr.Failed) != 2 || runErr.Failed[0].Index != 1 || runErr.Failed[1].Index != 2 {
		t.Fatalf("failed = %+v, want specs 1 and 2", runErr.Failed)
	}
	for _, f := range runErr.Failed {
		if !strings.Contains(f.Error(), specLabel(specs[f.Index])) || !strings.Contains(f.Error(), "not canonical") {
			t.Errorf("failure %q does not name the non-canonical spec", f.Error())
		}
	}
	if _, ok := res[specs[0].Key()]; !ok {
		t.Error("canonical spec missing from results")
	}
	if st := o.Stats(); st.Dispatched != 1 || st.Retries != 0 {
		t.Errorf("dispatched %d, retried %d; want the canonical spec only, once", st.Dispatched, st.Retries)
	}
}

// TestBackpressure429IsTransient: a worker with a one-slot queue bounces
// concurrent dispatches with 429 + Retry-After; the orchestrator honors
// the wait and completes every spec anyway.
func TestBackpressure429IsTransient(t *testing.T) {
	tw := startWorkerQueue(t, tinyOpts(), 1, 1)

	cfg := testConfig(tw.url())
	cfg.Concurrency = 4
	o := mustOrch(t, cfg)
	specs := []exp.SimSpec{tinySpec("bp-a"), tinySpec("bp-b"), tinySpec("bp-c"), tinySpec("bp-d")}
	for i := range specs {
		// Distinct saturating runs long enough to hold the single queue
		// slot while the other dispatchers arrive.
		specs[i].Benchmarks, specs[i].BenchmarkNames = nil, []string{"stream.triad"}
		specs[i].Seed = int64(100 + i)
		specs[i].Measure = 300_000
		specs[i] = canonical(specs[i])
	}
	res, err := o.Run(context.Background(), "backpressure", specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(specs) {
		t.Errorf("%d results, want %d", len(res), len(specs))
	}
	if o.Stats().Retries == 0 {
		t.Error("no retries recorded; the one-slot queue should have bounced concurrent dispatches")
	}
}

// TestWorkerDeathRedispatchesToSurvivor: killing a worker mid-run loses
// nothing — its specs are re-dispatched to the survivor.
func TestWorkerDeathRedispatchesToSurvivor(t *testing.T) {
	opts := tinyOpts()
	w1, w2 := startWorker(t, opts), startWorker(t, opts)
	o := mustOrch(t, testConfig(w1.url(), w2.url()))

	// Kill w2 shortly after the run starts; never restart it.
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(50 * time.Millisecond)
		w2.kill()
	}()

	r := exp.NewRunner(opts)
	table, err := o.RunExperiment(context.Background(), r, "fig7")
	<-done
	if err != nil {
		t.Fatal(err)
	}
	golden, err := exp.NewRunner(opts).RunExperiment("fig7")
	if err != nil {
		t.Fatal(err)
	}
	if table.String() != golden.String() {
		t.Error("table diverged after worker death")
	}
}

// lyingWorker fronts a real worker but simulates a different spec than
// the one dispatched (REFab/REFpb become NoREF) and relays the backend's
// self-consistent reply — the key and result of that other spec. A
// worker built at another SchemaVersion answers the same way: a valid
// result under a key that is not the one the orchestrator asked for.
func lyingWorker(t *testing.T, backend string) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) { fmt.Fprintln(w, "ok") })
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, `{"queue_free":64,"queue_cap":64,"draining":false,"degraded":false}`)
	})
	mux.HandleFunc("POST /v1/sim", func(w http.ResponseWriter, r *http.Request) {
		var spec exp.SimSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		spec.Mechanism = "NoREF"
		body, err := json.Marshal(spec)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		resp, err := http.Post(backend+"/v1/sim", "application/json", bytes.NewReader(body))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestWrongKeyReplyRetriedElsewhere: a reply carrying another spec's key
// is refused as malformed and the spec re-dispatched to an honest worker,
// so neither the table nor the orchestrator's store holds a result under
// the wrong key.
func TestWrongKeyReplyRetriedElsewhere(t *testing.T) {
	opts := tinyOpts()
	golden, err := exp.NewRunner(opts).RunExperiment("fig7")
	if err != nil {
		t.Fatal(err)
	}

	honest := startWorker(t, opts)
	liar := lyingWorker(t, startWorker(t, opts).url())
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(liar.URL, honest.url())
	cfg.Store = st
	cfg.Concurrency = 2 // fewer than the specs the liar owns, so the bound below bites
	o := mustOrch(t, cfg)
	table, err := o.RunExperiment(context.Background(), exp.NewRunner(opts), "fig7")
	if err != nil {
		t.Fatal(err)
	}
	if table.String() != golden.String() {
		t.Errorf("wrong-key replies reached the table:\n got:\n%s\nwant:\n%s", table, golden)
	}
	// Once one reply is refused the liar is skipped for the rest of the
	// run, so only the dispatches already in flight to it can be refused.
	if n := o.Stats().RetryCauses["malformed"]; n == 0 {
		t.Error("no reply was refused as malformed; the lying worker was never hit")
	} else if n > int64(o.cfg.Concurrency) {
		t.Errorf("%d replies refused as malformed, want at most Concurrency=%d", n, o.cfg.Concurrency)
	}

	// The local store holds only honest results: a warm rerun served
	// entirely from it renders the same table.
	warm := mustOrch(t, Config{Workers: []string{honest.url()}, Store: st})
	again, err := warm.RunExperiment(context.Background(), exp.NewRunner(opts), "fig7")
	if err != nil {
		t.Fatal(err)
	}
	if again.String() != golden.String() {
		t.Error("orchestrator store was poisoned by a wrong-key reply")
	}
	if st := warm.Stats(); st.Dispatched != 0 {
		t.Errorf("warm rerun dispatched %d specs, want 0 (all local hits)", st.Dispatched)
	}
}

// TestJournalRoundTrip pins the journal contract: fresh header, state
// replay on reopen, torn-tail tolerance, and refusal of a foreign run.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	specA, specB := tinySpec("a"), tinySpec("b")
	keys := []store.Key{specA.Key(), specB.Key()}

	j, state, err := openJournal(path, "run1", exp.SchemaVersion, keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(state.done)+len(state.failed) != 0 {
		t.Fatalf("fresh journal has state: %+v", state)
	}
	j.dispatched(keys[0], "http://w1")
	j.done(keys[0], "http://w1")
	j.dispatched(keys[1], "http://w2")
	j.failed(keys[1], "boom")
	j.Close()

	// Reopen: done and failed replayed; dispatched-without-done is
	// pending (absent from both maps).
	j2, state, err := openJournal(path, "run1", exp.SchemaVersion, keys)
	if err != nil {
		t.Fatal(err)
	}
	if !state.done[keys[0]] || state.failed[keys[0]] != "" {
		t.Errorf("key A state wrong: %+v", state)
	}
	if state.failed[keys[1]] != "boom" || state.done[keys[1]] {
		t.Errorf("key B state wrong: %+v", state)
	}
	// A later done supersedes the failure (a resumed run retried it).
	j2.done(keys[1], "http://w1")
	j2.Close()
	_, state, err = openJournal(path, "run1", exp.SchemaVersion, keys)
	if err != nil {
		t.Fatal(err)
	}
	if !state.done[keys[1]] || len(state.failed) != 0 {
		t.Errorf("retried spec still failed: %+v", state)
	}

	// Torn tail: a crash mid-append leaves half a line; replay ignores it.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"type":"done","key":"deadbe`)
	f.Close()
	_, state, err = openJournal(path, "run1", exp.SchemaVersion, keys)
	if err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	if !state.done[keys[0]] || !state.done[keys[1]] {
		t.Errorf("state lost after torn tail: %+v", state)
	}

	// A journal for a different spec set is refused, not silently mixed.
	if _, _, err := openJournal(path, "run1", exp.SchemaVersion, keys[:1]); err == nil {
		t.Error("journal accepted a mismatched spec set")
	}
	if _, _, err := openJournal(path, "run2", exp.SchemaVersion, keys); err == nil {
		t.Error("journal accepted a mismatched run name")
	}
}

// TestJournalResume: an interrupted run resumes from the local store and
// the worker's store — the second orchestrator re-simulates nothing, and
// total fleet work equals one cold run.
func TestJournalResume(t *testing.T) {
	opts := tinyOpts()
	w := startWorker(t, opts)
	journalPath := filepath.Join(t.TempDir(), "resume.journal")
	localDir := t.TempDir()

	r := exp.NewRunner(opts)
	e, ok := exp.LookupExperiment("fig7")
	if !ok {
		t.Fatal("no fig7")
	}
	specs := e.Specs(r)
	if len(specs) < 4 {
		t.Fatalf("fig7 has only %d specs; resume test needs a few", len(specs))
	}

	// Phase 1: cancel once the worker has computed a few results.
	st1, err := store.Open(localDir, store.Options{Generation: exp.SchemaVersion})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(w.url())
	cfg.Journal = journalPath
	cfg.Store = st1
	cfg.Concurrency = 2
	o1 := mustOrch(t, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Cancel only once three results have actually landed in the
		// orchestrator's local store — that is the durable progress the
		// resumed run gets to reuse (a sim the worker ran whose response
		// never arrived is recoverable but not guaranteed local).
		for {
			persisted := 0
			for k := range uniqueKeys(specs) {
				if st1.Contains(k) {
					persisted++
				}
			}
			if persisted >= 3 {
				cancel()
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	_, err = o1.Run(ctx, "fig7", specs)
	if err == nil {
		t.Fatal("phase 1 finished before it could be interrupted; lower the cancel threshold")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("phase 1 error = %v, want context.Canceled", err)
	}

	// Phase 2: a fresh orchestrator over the same journal and local store
	// completes the run.
	simsBefore := waitSimsQuiesce(t, w)
	st2, err := store.Open(localDir, store.Options{Generation: exp.SchemaVersion})
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := testConfig(w.url())
	cfg2.Journal = journalPath
	cfg2.Store = st2
	o2 := mustOrch(t, cfg2)
	res, err := o2.Run(context.Background(), "fig7", specs)
	if err != nil {
		t.Fatal(err)
	}
	table, err := e.Assemble(r, res)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := exp.NewRunner(opts).RunExperiment("fig7")
	if err != nil {
		t.Fatal(err)
	}
	if table.String() != golden.String() {
		t.Error("resumed run's table diverged from a single-node run")
	}

	// Resume must be cheaper than a cold run: the worker simulated
	// strictly less in phase 2 than the whole run needs, and nothing was
	// ever simulated twice across both phases.
	unique := int64(len(uniqueKeys(specs)))
	phase2 := w.simsRun() - simsBefore
	if phase2 >= unique {
		t.Errorf("phase 2 ran %d sims, not strictly less than a cold run's %d", phase2, unique)
	}
	if total := w.simsRun(); total != unique {
		t.Errorf("fleet simulated %d total across both phases, want exactly %d (no recompute)", total, unique)
	}
	if hits := o2.Stats().LocalHits; hits < 3 {
		t.Errorf("phase 2 local store hits = %d, want >= 3 (phase 1 persisted at least that many)", hits)
	}
}

// waitSimsQuiesce waits for the worker's in-flight simulations (which an
// aborted HTTP request does not cancel) to settle, returning the stable
// count.
func waitSimsQuiesce(t *testing.T, w *testWorker) int64 {
	t.Helper()
	prev := w.simsRun()
	for i := 0; i < 200; i++ {
		time.Sleep(25 * time.Millisecond)
		cur := w.simsRun()
		if cur == prev && i > 2 {
			return cur
		}
		prev = cur
	}
	return prev
}

func uniqueKeys(specs []exp.SimSpec) map[store.Key]bool {
	m := map[store.Key]bool{}
	for _, s := range specs {
		m[s.Key()] = true
	}
	return m
}

// TestBackoffCappedAndJittered pins the retry delay envelope.
func TestBackoffCappedAndJittered(t *testing.T) {
	o := mustOrch(t, testConfig("http://unused"))
	o.cfg.BaseBackoff = 100 * time.Millisecond
	o.cfg.MaxBackoff = time.Second
	for attempt := 0; attempt < 20; attempt++ {
		base := o.cfg.BaseBackoff << attempt
		if base > o.cfg.MaxBackoff || base <= 0 {
			base = o.cfg.MaxBackoff
		}
		for i := 0; i < 50; i++ {
			d := o.backoff(attempt)
			if d < base/2 || d > base*3/2 {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d, base/2, base*3/2)
			}
		}
	}
}

// TestNoWorkersRejected: an orchestrator needs at least one worker.
func TestNoWorkersRejected(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted an empty worker list")
	}
}
