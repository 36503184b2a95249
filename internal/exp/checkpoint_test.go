package exp

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"testing"
	"time"

	"dsarp/internal/core"
	"dsarp/internal/store"
	"dsarp/internal/timing"
)

func checkpointOpts(t *testing.T) Options {
	opts := tinyOpts()
	opts.Store = openStore(t)
	opts.Checkpoints = true
	opts.CheckpointEvery = 10_000
	return opts
}

// dropResultEntry removes a result from the store so the compute path runs
// again while the snapshot namespace stays warm.
func dropResultEntry(t *testing.T, st *store.Store, key store.Key) {
	t.Helper()
	if _, ok := st.Get(key); !ok {
		t.Fatal("result entry missing before drop")
	}
	if err := os.Remove(st.EntryPath(key)); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(key); ok {
		t.Fatal("result entry still served after drop")
	}
}

// TestCheckpointWriteAndSelfResume: a cold checkpointed run persists its
// warmup-boundary and periodic snapshots; a fresh runner over the same
// store resumes the identical spec from the deepest one and produces a
// bit-identical result while skipping the shared prefix.
func TestCheckpointWriteAndSelfResume(t *testing.T) {
	opts := checkpointOpts(t)
	cold := NewRunner(opts)
	wl := cold.Mixes()[0]
	spec := cold.specFor(wl, core.KindDSARP, timing.Gb8, "")
	want, info, err := cold.RunSpecInfo(spec)
	if err != nil {
		t.Fatal(err)
	}
	if info.Source != SourceComputed || info.ResumedFrom != 0 {
		t.Fatalf("cold run info = %+v", info)
	}
	// Warmup boundary at 10k plus periodic snapshots at 20k, 30k, 40k
	// (strictly inside [10k, 50k)).
	if n := cold.CheckpointsWritten(); n != 4 {
		t.Errorf("CheckpointsWritten = %d, want 4", n)
	}
	if cold.CheckpointBytesWritten() <= 0 {
		t.Error("no snapshot bytes accounted")
	}
	if st := opts.Store.Stats(); st.SnapshotEntries != 4 {
		t.Errorf("store snapshot entries = %d, want 4", st.SnapshotEntries)
	}

	// The result itself is on disk, so a rerun is a plain store hit.
	warm := NewRunner(opts)
	got, winfo, err := warm.RunSpecInfo(spec)
	if err != nil || winfo.Source != SourceStore {
		t.Fatalf("warm result lookup: %+v, %v", winfo, err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("store-served result diverged")
	}

	// Force the compute path by removing only the result entry: the
	// simulation must restart from the deepest snapshot, not cycle 0.
	fresh := NewRunner(opts)
	dropResultEntry(t, opts.Store, spec.Key())
	got, info, err = fresh.RunSpecInfo(spec)
	if err != nil {
		t.Fatal(err)
	}
	if info.Source != SourceComputed {
		t.Fatalf("source = %v, want computed", info.Source)
	}
	if deepest := spec.Warmup + 3*opts.CheckpointEvery; info.ResumedFrom != deepest {
		t.Errorf("resumed from cycle %d, want deepest checkpoint %d", info.ResumedFrom, deepest)
	}
	if n := fresh.CheckpointsRestored(); n != 1 {
		t.Errorf("CheckpointsRestored = %d, want 1", n)
	}
	if fresh.CheckpointBytesRestored() <= 0 {
		t.Error("no restored snapshot bytes accounted")
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("resumed result diverged:\n got:  %+v\n want: %+v", got, want)
	}
}

// TestCheckpointMidWindowResumeBytes: a run resumed from a mid-window
// checkpoint must encode to the same bytes as the checkpoint-free run, for
// every spec of a sweep of 2-core 8 Gb specs across mechanisms, workload
// mixes and seeds. A result carrying run-loop facts (how many cycles were
// stepped rather than skipped) fails this on a few specs, because a
// resumed run loop starts with fresh saturation state.
func TestCheckpointMidWindowResumeBytes(t *testing.T) {
	opts := Options{
		PerCategory: 1,
		Sensitivity: 1,
		Cores:       2,
		Warmup:      2_000,
		Measure:     8_000,
		Seed:        42,
		Densities:   []timing.Density{timing.Gb8},
	}
	ref := NewRunner(opts)
	var specs []SimSpec
	for _, wl := range ref.Mixes() {
		for _, k := range core.Kinds() {
			for seed := int64(1); seed <= 3; seed++ {
				spec := ref.specFor(wl, k, timing.Gb8, "")
				spec.Seed = seed
				specs = append(specs, spec)
			}
		}
	}
	want, ok := ref.RunAll(specs)
	if !ok {
		t.Fatal("checkpoint-free sweep interrupted")
	}

	ckptOpts := opts
	ckptOpts.Store = openStore(t)
	ckptOpts.Checkpoints = true
	ckptOpts.CheckpointEvery = 4_000 // one mid-window checkpoint, at 6000
	if _, ok := NewRunner(ckptOpts).RunAll(specs); !ok {
		t.Fatal("checkpointed sweep interrupted")
	}
	for _, spec := range specs {
		dropResultEntry(t, ckptOpts.Store, spec.Key())
	}
	resumer := NewRunner(ckptOpts)
	got, ok := resumer.RunAll(specs)
	if !ok {
		t.Fatal("resumed sweep interrupted")
	}
	if n := resumer.CheckpointsRestored(); n != int64(len(specs)) {
		t.Fatalf("CheckpointsRestored = %d, want one per spec (%d)", n, len(specs))
	}
	for _, spec := range specs {
		wantB, err := EncodeResult(want[spec.Key()])
		if err != nil {
			t.Fatal(err)
		}
		gotB, err := EncodeResult(got[spec.Key()])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantB, gotB) {
			t.Errorf("%s seed %d: resumed from cycle 6000, result bytes differ:\n cold:    %s\n resumed: %s",
				spec.label(), spec.Seed, wantB, gotB)
		}
	}
}

// TestCheckpointMeasureExtension: a short-measure run's snapshots
// accelerate a longer-measure rerun of the otherwise-identical spec — the
// prefix key zeroes Measure — and the extended result is bit-identical to
// a cold extended run.
func TestCheckpointMeasureExtension(t *testing.T) {
	opts := checkpointOpts(t)
	short := NewRunner(opts)
	wl := short.Mixes()[0]
	shortSpec := short.specFor(wl, core.KindREFpb, timing.Gb8, "")
	if _, _, err := short.RunSpecInfo(shortSpec); err != nil {
		t.Fatal(err)
	}
	if short.CheckpointsWritten() == 0 {
		t.Fatal("short run wrote no snapshots")
	}

	longSpec := shortSpec
	longSpec.Measure = shortSpec.Measure + 30_000

	// Cold reference for the long window, computed checkpoint-free.
	coldRef, info, err := NewRunner(tinyOpts()).RunSpecInfo(longSpec)
	if err != nil {
		t.Fatal(err)
	}
	if info.ResumedFrom != 0 {
		t.Fatalf("checkpoint-free runner resumed from %d", info.ResumedFrom)
	}

	long := NewRunner(opts)
	got, info, err := long.RunSpecInfo(longSpec)
	if err != nil {
		t.Fatal(err)
	}
	if info.Source != SourceComputed {
		t.Fatalf("source = %v, want computed (different Measure, different result key)", info.Source)
	}
	if info.ResumedFrom <= shortSpec.Warmup {
		t.Errorf("resumed from %d, want a mid-measure checkpoint past warmup %d",
			info.ResumedFrom, shortSpec.Warmup)
	}
	if !reflect.DeepEqual(coldRef, got) {
		t.Errorf("measure-extension result diverged from cold long run:\n got:  %+v\n want: %+v", got, coldRef)
	}
}

// TestCheckpointSurvivesWatchdogAbort: a watchdog-aborted run leaves the
// store's snapshots behind, so the retry resumes mid-run instead of from
// cycle 0 — the "lose only the tail" contract behind fleet retries.
func TestCheckpointSurvivesWatchdogAbort(t *testing.T) {
	opts := checkpointOpts(t)
	healthy := NewRunner(opts)
	wl := healthy.Mixes()[0]
	spec := healthy.specFor(wl, core.KindREFab, timing.Gb8, "")
	if _, _, err := healthy.RunSpecInfo(spec); err != nil {
		t.Fatal(err)
	}

	// A measure-extended rerun under a vanishing budget: it resumes from
	// the short run's snapshots, then the watchdog kills it long before
	// the 2M-cycle window completes.
	longSpec := spec
	longSpec.Measure = 2_000_000
	abortOpts := opts
	abortOpts.SimTimeout = time.Nanosecond
	aborting := NewRunner(abortOpts)
	if _, _, err := aborting.RunSpecInfo(longSpec); !errors.Is(err, ErrSimTimeout) {
		t.Fatalf("vanishing budget = %v, want ErrSimTimeout", err)
	}
	if _, ok := opts.Store.Get(longSpec.Key()); ok {
		t.Fatal("aborted run leaked a result into the store")
	}

	// The retry (a tractable extension of the same prefix) resumes from
	// whatever checkpoints survive — at least the healthy run's — instead
	// of restarting at cycle 0, and stays bit-exact against a cold run.
	retrySpec := spec
	retrySpec.Measure = 100_000
	want, _, err := NewRunner(tinyOpts()).RunSpecInfo(retrySpec)
	if err != nil {
		t.Fatal(err)
	}
	retry := NewRunner(opts)
	got, info, err := retry.RunSpecInfo(retrySpec)
	if err != nil {
		t.Fatal(err)
	}
	if info.ResumedFrom < spec.Warmup+3*opts.CheckpointEvery {
		t.Errorf("retry resumed from %d; the healthy run's deepest checkpoint %d should have survived",
			info.ResumedFrom, spec.Warmup+3*opts.CheckpointEvery)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("retried result diverged from a cold run")
	}
}

// TestCheckpointFallsBackOnCorruptSnapshot: a damaged snapshot entry is
// skipped in favor of the next-deepest intact one — never an error, never
// a wrong result.
func TestCheckpointFallsBackOnCorruptSnapshot(t *testing.T) {
	opts := checkpointOpts(t)
	r1 := NewRunner(opts)
	wl := r1.Mixes()[0]
	spec := r1.specFor(wl, core.KindElastic, timing.Gb8, "")
	want, _, err := r1.RunSpecInfo(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt the deepest snapshot in place: flip one payload byte and
	// rewrite it through the store, so the store's own envelope verifies
	// and the snap container must catch the damage.
	deepest := spec.Warmup + 3*opts.CheckpointEvery
	pkey := spec.PrefixKey(deepest)
	data, ok := opts.Store.GetKind(pkey, store.KindSnapshot)
	if !ok {
		t.Fatal("deepest snapshot missing")
	}
	bad := append([]byte(nil), data...)
	bad[len(bad)-1] ^= 0x01
	if err := opts.Store.PutKind(pkey, store.KindSnapshot, bad); err != nil {
		t.Fatal(err)
	}

	r2 := NewRunner(opts)
	dropResultEntry(t, opts.Store, spec.Key())
	got, info, err := r2.RunSpecInfo(spec)
	if err != nil {
		t.Fatal(err)
	}
	if next := spec.Warmup + 2*opts.CheckpointEvery; info.ResumedFrom != next {
		t.Errorf("resumed from %d, want the next-deepest intact checkpoint %d",
			info.ResumedFrom, next)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("fallback result diverged")
	}
}

// TestPrefixKeySharing pins the exact-mode sharing rule: only Measure is
// outside the prefix hash; every other field (and the snapshot cycle)
// changes the key.
func TestPrefixKeySharing(t *testing.T) {
	r := NewRunner(tinyOpts())
	wl := r.Mixes()[0]
	base := r.specFor(wl, core.KindDSARP, timing.Gb8, "")

	other := base
	other.Measure = base.Measure * 3
	if base.PrefixKey(10_000) != other.PrefixKey(10_000) {
		t.Error("Measure change altered the prefix key; measure-extension sharing broken")
	}
	if base.Key() == other.Key() {
		t.Error("Measure change did not alter the result key")
	}
	if base.PrefixKey(10_000) == base.PrefixKey(20_000) {
		t.Error("cycle not folded into the prefix key")
	}
	if base.PrefixKey(10_000) == base.Key() {
		t.Error("prefix key collided with the result key")
	}
	for name, mut := range map[string]func(*SimSpec){
		"mech":    func(s *SimSpec) { s.Mechanism = core.KindREFab.String() },
		"density": func(s *SimSpec) { s.DensityGb = 32 },
		"variant": func(s *SimSpec) { s.Variant = "subs16" },
		"seed":    func(s *SimSpec) { s.Seed++ },
		"warmup":  func(s *SimSpec) { s.Warmup++ },
	} {
		spec := base
		mut(&spec)
		if spec.PrefixKey(10_000) == base.PrefixKey(10_000) {
			t.Errorf("%s change did not alter the prefix key", name)
		}
	}
}
