package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dsarp/internal/core"
	"dsarp/internal/snap"
	"dsarp/internal/timing"
	"dsarp/internal/workload"
)

// runCheckpointed runs cfg collecting every snapshot, asserts the
// checkpointed Result is byte-identical in every model field to the plain
// run's, and returns the plain result plus the captured snapshots.
func runCheckpointed(t *testing.T, name string, cfg Config, every int64) (Result, []int64, [][]byte) {
	t.Helper()
	plain, err := Run(cfg)
	if err != nil {
		t.Fatalf("%s: plain run: %v", name, err)
	}
	var cycles []int64
	var snaps [][]byte
	ck, err := RunWithCheckpoints(cfg, every, func(cycle int64, data []byte) {
		cycles = append(cycles, cycle)
		snaps = append(snaps, data)
	})
	if err != nil {
		t.Fatalf("%s: checkpointed run: %v", name, err)
	}
	if !sameModel(plain, ck) {
		t.Errorf("%s: checkpointing perturbed the run:\n plain: %+v\n ckpt:  %+v", name, plain, ck)
	}
	if len(snaps) == 0 {
		t.Fatalf("%s: no snapshots captured", name)
	}
	if cycles[0] != cfg.Warmup {
		t.Errorf("%s: first snapshot at cycle %d, want warmup boundary %d", name, cycles[0], cfg.Warmup)
	}
	return plain, cycles, snaps
}

// resumeAll resumes from every captured snapshot and requires each resumed
// Result to be byte-identical to the cold run's in every model field.
func resumeAll(t *testing.T, name string, cfg Config, want Result, cycles []int64, snaps [][]byte) {
	t.Helper()
	for i, data := range snaps {
		got, err := ResumeRun(cfg, data, 0, nil)
		if err != nil {
			t.Fatalf("%s: resume from cycle %d: %v", name, cycles[i], err)
		}
		if !sameModel(want, got) {
			t.Errorf("%s: resume from cycle %d diverged:\n cold:    %+v\n resumed: %+v",
				name, cycles[i], want, got)
		}
	}
}

// TestResumeBitExactAllMechanisms snapshots every mechanism at the warmup
// boundary and at periodic mid-measure checkpoints, resumes from each, and
// requires byte-equal Results — the correctness bar for checkpoint reuse.
func TestResumeBitExactAllMechanisms(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-simulation resume matrix")
	}
	for _, k := range core.Kinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			cfg := Config{
				Workload:  smallWorkload(),
				Mechanism: k,
				Density:   timing.Gb32,
				Seed:      7,
				Warmup:    8_000,
				Measure:   30_000,
			}
			want, cycles, snaps := runCheckpointed(t, k.String(), cfg, 7_000)
			resumeAll(t, k.String(), cfg, want, cycles, snaps)
		})
	}
}

// TestResumeBitExactSaturated pins resume correctness where the run loop
// leans on its saturation fallback: intensive many-core configs whose
// snapshots routinely land inside blind windows.
func TestResumeBitExactSaturated(t *testing.T) {
	if testing.Short() {
		t.Skip("saturated resume runs")
	}
	lib := workload.Library()
	wl := workload.Workload{Name: "sat", Benchmarks: lib[:8]}
	for _, k := range []core.Kind{core.KindDSARP, core.KindDARP, core.KindREFpb} {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			cfg := Config{
				Workload:  wl,
				Mechanism: k,
				Density:   timing.Gb8,
				Seed:      3,
				Warmup:    6_000,
				Measure:   24_000,
				Channels:  1,
			}
			want, cycles, snaps := runCheckpointed(t, k.String(), cfg, 5_000)
			resumeAll(t, k.String(), cfg, want, cycles, snaps)
		})
	}
}

// TestResumeCycleEngine covers the cycle oracle: snapshots it takes must
// resume under it to the oracle's own Result.
func TestResumeCycleEngine(t *testing.T) {
	cfg := Config{
		Workload:  smallWorkload(),
		Mechanism: core.KindDSARP,
		Density:   timing.Gb32,
		Seed:      11,
		Warmup:    5_000,
		Measure:   15_000,
	}
	var cycles []int64
	var snaps [][]byte
	want := cycleOracle(t, cfg, nil, 4_000, func(c int64, d []byte) {
		cycles = append(cycles, c)
		snaps = append(snaps, d)
	})
	if len(snaps) != 4 {
		t.Fatalf("oracle took %d snapshots at %v, want 4", len(snaps), cycles)
	}
	for i, data := range snaps {
		if got := cycleOracle(t, cfg, data, 0, nil); !sameModel(want, got) {
			t.Errorf("resume from cycle %d diverged:\n cold:    %+v\n resumed: %+v", cycles[i], want, got)
		}
	}
}

// TestResumeCrossEngine snapshots under the run loop and restores under
// the cycle oracle, and the other way round. The machine state does not
// depend on how it was advanced, so the Results must match in every model
// field (the equivalence-matrix convention).
func TestResumeCrossEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-engine resume runs")
	}
	cfg := Config{
		Workload:  smallWorkload(),
		Mechanism: core.KindDSARP,
		Density:   timing.Gb32,
		Seed:      9,
		Warmup:    5_000,
		Measure:   20_000,
	}
	want := cycleOracle(t, cfg, nil, 0, nil)
	for _, dir := range []struct {
		name       string
		checkpoint func(t *testing.T, sink Checkpointer)
		resume     func(t *testing.T, data []byte) Result
	}{
		{"event_to_cycle",
			func(t *testing.T, sink Checkpointer) {
				if _, err := RunWithCheckpoints(cfg, 8_000, sink); err != nil {
					t.Fatalf("checkpointed run: %v", err)
				}
			},
			func(t *testing.T, data []byte) Result { return cycleOracle(t, cfg, data, 0, nil) }},
		{"cycle_to_event",
			func(t *testing.T, sink Checkpointer) { cycleOracle(t, cfg, nil, 8_000, sink) },
			func(t *testing.T, data []byte) Result {
				res, err := ResumeRun(cfg, data, 0, nil)
				if err != nil {
					t.Fatalf("resume: %v", err)
				}
				return res
			}},
	} {
		t.Run(dir.name, func(t *testing.T) {
			var snaps [][]byte
			dir.checkpoint(t, func(_ int64, d []byte) { snaps = append(snaps, d) })
			for i, data := range snaps {
				if got := dir.resume(t, data); !sameModel(want, got) {
					t.Errorf("%s: resume %d diverged:\n cold:    %+v\n resumed: %+v",
						dir.name, i, want, got)
				}
			}
		})
	}
}

// TestResumeMeasureExtension reuses a warmup-boundary snapshot taken under
// a short measurement window for a longer one: the snapshot is agnostic to
// Measure, so the extended resumed run must equal an extended cold run.
func TestResumeMeasureExtension(t *testing.T) {
	cfg := Config{
		Workload:  smallWorkload(),
		Mechanism: core.KindDARP,
		Density:   timing.Gb32,
		Seed:      4,
		Warmup:    5_000,
		Measure:   10_000,
	}
	var boundary []byte
	if _, err := RunWithCheckpoints(cfg, 0, func(cycle int64, d []byte) {
		if cycle == cfg.Warmup {
			boundary = d
		}
	}); err != nil {
		t.Fatalf("short run: %v", err)
	}
	long := cfg
	long.Measure = 25_000
	want, err := Run(long)
	if err != nil {
		t.Fatalf("cold long run: %v", err)
	}
	got, err := ResumeRun(long, boundary, 0, nil)
	if err != nil {
		t.Fatalf("extended resume: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("measure extension diverged:\n cold:    %+v\n resumed: %+v", want, got)
	}
}

// TestResumeCheckpointChainEquality requires a resumed run to emit the
// exact snapshot byte streams the cold run emitted after the resume point:
// checkpoint schedules must be identical whether armed cold or on resume.
func TestResumeCheckpointChainEquality(t *testing.T) {
	cfg := Config{
		Workload:  smallWorkload(),
		Mechanism: core.KindDSARP,
		Density:   timing.Gb32,
		Seed:      2,
		Warmup:    4_000,
		Measure:   20_000,
	}
	const every = 4_500
	var coldCycles []int64
	var coldSnaps [][]byte
	if _, err := RunWithCheckpoints(cfg, every, func(c int64, d []byte) {
		coldCycles = append(coldCycles, c)
		coldSnaps = append(coldSnaps, d)
	}); err != nil {
		t.Fatal(err)
	}
	if len(coldSnaps) < 3 {
		t.Fatalf("want >= 3 checkpoints, got %d at %v", len(coldSnaps), coldCycles)
	}
	var resCycles []int64
	var resSnaps [][]byte
	if _, err := ResumeRun(cfg, coldSnaps[1], every, func(c int64, d []byte) {
		resCycles = append(resCycles, c)
		resSnaps = append(resSnaps, d)
	}); err != nil {
		t.Fatal(err)
	}
	wantCycles := coldCycles[2:]
	if !reflect.DeepEqual(resCycles, wantCycles) {
		t.Fatalf("resumed checkpoint cycles %v, cold emitted %v", resCycles, wantCycles)
	}
	for i := range resSnaps {
		if !bytes.Equal(resSnaps[i], coldSnaps[2+i]) {
			t.Errorf("checkpoint at cycle %d differs between cold and resumed run", resCycles[i])
		}
	}
}

// TestResumeFuzzRandomCycle snapshots at a random mid-measure cycle
// (exercising arbitrary run-loop positions, blind windows included) by
// scheduling a one-off checkpoint there, then diffs the resumed Result
// against the cold run's.
func TestResumeFuzzRandomCycle(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz resume runs")
	}
	rng := rand.New(rand.NewSource(20260807))
	kinds := core.Kinds()
	for i := 0; i < 8; i++ {
		cores := 2 + rng.Intn(7)
		var wl workload.Workload
		if rng.Intn(2) == 0 {
			wl = workload.IntensiveMixes(1, cores, rng.Int63())[0]
		} else {
			wl = workload.Mixes(1, cores, rng.Int63())[0]
		}
		k := kinds[rng.Intn(len(kinds))]
		seed := rng.Int63n(1 << 20)
		cfg := Config{
			Workload:  wl,
			Mechanism: k,
			Density:   timing.Gb32,
			Seed:      seed,
			Warmup:    5_000,
			Measure:   20_000,
		}
		// A prime-ish random interval puts the first mid-measure checkpoint
		// at an arbitrary run-loop position.
		every := 3_000 + rng.Int63n(9_000)
		name := fmt.Sprintf("draw%d_%s_%s_seed%d_every%d", i, k, wl.Name, seed, every)
		t.Run(name, func(t *testing.T) {
			want, cycles, snaps := runCheckpointed(t, name, cfg, every)
			// Resume only from the last (deepest) snapshot: the full matrix
			// is covered by the dedicated tests above.
			resumeAll(t, name, cfg, want, cycles[len(cycles)-1:], snaps[len(snaps)-1:])
		})
	}
}

// TestSnapshotBetweenSegments pins the contract checkpointing rests on: a
// checkpoint is the machine between two RunTo segments, nothing more. A
// system driven by hand to cycle c (warmup, beginMeasure, one RunTo(c))
// serializes to exactly the bytes RunWithCheckpoints hands its sink at c,
// although the checkpointed run reached c through other segment
// boundaries.
func TestSnapshotBetweenSegments(t *testing.T) {
	const every = 3_777 // does not divide the 20k window
	for _, k := range []core.Kind{core.KindREFab, core.KindDSARP} {
		cfg := Config{
			Workload:  smallWorkload(),
			Mechanism: k,
			Density:   timing.Gb32,
			Seed:      11,
			Warmup:    5_000,
			Measure:   20_000,
		}.WithDefaults()
		var cycles []int64
		snaps := map[int64][]byte{}
		if _, err := RunWithCheckpoints(cfg, every, func(c int64, data []byte) {
			cycles = append(cycles, c)
			snaps[c] = data
		}); err != nil {
			t.Fatal(err)
		}
		want := []int64{cfg.Warmup}
		for c := cfg.Warmup + every; c < cfg.Warmup+cfg.Measure; c += every {
			want = append(want, c)
		}
		if !reflect.DeepEqual(cycles, want) {
			t.Fatalf("%s: checkpoints at %v, want %v", k, cycles, want)
		}
		for _, c := range want[1:] {
			s, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.RunTo(cfg.Warmup)
			s.beginMeasure()
			s.RunTo(c)
			if s.Now() != c {
				t.Fatalf("%s: RunTo(%d) stopped at %d", k, c, s.Now())
			}
			if !bytes.Equal(s.Snapshot(), snaps[c]) {
				t.Errorf("%s: snapshot after RunTo(%d) differs from the checkpoint at %d", k, c, c)
			}
		}
	}
}

// TestRestoreRefusesMismatch pins the refusal paths: corrupt payloads,
// version skew, checked configs, and wrong-shape configs never restore.
func TestRestoreRefusesMismatch(t *testing.T) {
	cfg := Config{
		Workload:  smallWorkload(),
		Mechanism: core.KindREFab,
		Density:   timing.Gb32,
		Seed:      1,
		Warmup:    2_000,
		Measure:   4_000,
	}
	var boundary []byte
	if _, err := RunWithCheckpoints(cfg, 0, func(_ int64, d []byte) { boundary = d }); err != nil {
		t.Fatal(err)
	}

	if _, err := RestoreSystem(cfg, boundary); err != nil {
		t.Fatalf("clean restore failed: %v", err)
	}

	checked := cfg
	checked.Check = true
	if _, err := RestoreSystem(checked, boundary); err == nil {
		t.Error("restore into a checked config must be refused")
	}

	bad := append([]byte(nil), boundary...)
	bad[len(bad)-1] ^= 0xff
	if _, err := RestoreSystem(cfg, bad); err == nil {
		t.Error("corrupt payload must be refused")
	}

	// Version skew: rewrite the header's version string in place.
	skewed := bytes.Replace(boundary, []byte(snap.Version), []byte("dsarp-snap-v0"), 1)
	if _, err := RestoreSystem(cfg, skewed); err == nil {
		t.Error("version-skewed snapshot must be refused")
	} else if !isVersionErr(err) {
		t.Errorf("version skew reported as %v, want snap.ErrVersion", err)
	}

	wrongShape := cfg
	wrongShape.Channels = 1
	if _, err := RestoreSystem(wrongShape, boundary); err == nil {
		t.Error("wrong-shape config must be refused")
	}
}

// patchSection overwrites len(v) bytes of the named section's body at off
// (counted from the body's end when negative) and reseals the payload
// hash, as any peer can: the seal is unkeyed.
func patchSection(t *testing.T, data []byte, name string, off int, v []byte) []byte {
	t.Helper()
	out := append([]byte(nil), data...)
	hdr := len("DSNAP") + 8 + len(snap.Version) + 8
	payload := out[hdr+32:]
	for p := 0; p < len(payload); {
		n := int(binary.LittleEndian.Uint64(payload[p:]))
		body := int(binary.LittleEndian.Uint64(payload[p+8+n:]))
		start := p + 16 + n
		if string(payload[p+8:p+8+n]) == name {
			if off < 0 {
				off += body
			}
			copy(payload[start+off:start+off+len(v)], v)
			sum := sha256.Sum256(payload)
			copy(out[hdr:], sum[:])
			return out
		}
		p = start + body
	}
	t.Fatalf("snapshot has no section %q", name)
	return nil
}

// TestRestoreRejectsHostileSnapshot resealed snapshots carrying a
// malformed rng state or a hostile list count must fail to restore
// promptly, whichever component holds the field.
func TestRestoreRejectsHostileSnapshot(t *testing.T) {
	cfg := Config{
		Workload:  smallWorkload(),
		Mechanism: core.KindDSARP,
		Density:   timing.Gb32,
		Seed:      3,
		Warmup:    4_000,
		Measure:   4_000,
	}.WithDefaults()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.RunTo(cfg.Warmup)
	data := s.Snapshot()
	if _, err := RestoreSystem(cfg, data); err != nil {
		t.Fatalf("clean restore failed: %v", err)
	}

	huge := binary.LittleEndian.AppendUint64(nil, 1<<40)
	short := binary.LittleEndian.AppendUint64(nil, 19)
	sets := cfg.Cache.SizeBytes / (cfg.Cache.Ways * cfg.Cache.LineBytes)
	for _, tc := range []struct {
		name, section string
		off           int
		v             []byte
		want          string // in the error: the field the loader refused
	}{
		// The trace generator's state closes each core section: the rng
		// blob (8-byte length + 20 bytes) then four 8-byte cursors.
		{"trace rng prefix", "core0", -52, []byte("pcx:"), "rng state"},
		{"trace rng length", "core0", -60, short, "rng state"},
		// DARP's rng blob opens its policy section.
		{"darp rng prefix", "policy0", 8, []byte("pcx:"), "rng state"},
		// The read queue's bucket count follows 8 header fields (50 bytes)
		// and 13 stats.
		{"queue buckets", "ctrl0", 50 + 13*8, huge, "queue buckets"},
		// The pending-writeback count follows the LRU clock, 5 stats and
		// the tag store (per set: mru + ways x 18-byte lines).
		{"pending writebacks", "slice0", 6*8 + sets*(8+cfg.Cache.Ways*18), huge, "pending lists"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := patchSection(t, data, tc.section, tc.off, tc.v)
			_, err := RestoreSystem(cfg, bad)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("restore error %v, want one naming %q", err, tc.want)
			}
		})
	}
}

func isVersionErr(err error) bool {
	for ; err != nil; err = unwrap(err) {
		if err == snap.ErrVersion {
			return true
		}
	}
	return false
}

func unwrap(err error) error {
	u, ok := err.(interface{ Unwrap() error })
	if !ok {
		return nil
	}
	return u.Unwrap()
}

// TestCanSnapshot pins the unsupported configurations: checked runs and
// ad-hoc policies fall back to plain (checkpoint-free) runs.
func TestCanSnapshot(t *testing.T) {
	cfg := Config{
		Workload:  smallWorkload(),
		Mechanism: core.KindREFab,
		Density:   timing.Gb32,
		Seed:      1,
		Warmup:    1_000,
		Measure:   2_000,
		Check:     true,
	}
	fired := false
	if _, err := RunWithCheckpoints(cfg, 500, func(int64, []byte) { fired = true }); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("checked run must not emit snapshots")
	}
}

// BenchmarkSnapshotRoundTrip measures the serialize+restore cost of a
// warmed-up DSARP system — the per-checkpoint overhead a resumable run
// pays on top of simulation proper.
func BenchmarkSnapshotRoundTrip(b *testing.B) {
	cfg := Config{
		Workload:  smallWorkload(),
		Mechanism: core.KindDSARP,
		Density:   timing.Gb32,
		Seed:      7,
		Warmup:    8_000,
		Measure:   30_000,
	}
	cfg = cfg.WithDefaults()
	s, err := NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s.RunTo(cfg.Warmup)
	data := s.Snapshot()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data = s.Snapshot()
		if _, err := RestoreSystem(cfg, data); err != nil {
			b.Fatal(err)
		}
	}
}

// TestGoldenSnapshotBytes pins the snapshot container byte-for-byte
// against testdata/golden.snap: the same discipline the golden tables
// apply to simulator behavior, applied to the snapshot layout. If this
// fails, the serialized layout (or the simulated state it captures)
// changed — regenerate the fixture with
//
//	DSARP_UPDATE_SNAP_GOLDEN=1 go test ./internal/sim -run TestGoldenSnapshotBytes
//
// AND bump snap.Version in the same change, or every warm store's
// snapshots would restore into a machine they no longer describe.
// scripts/check-schema-bump.sh fails CI when the fixture changes without
// the version bump.
func TestGoldenSnapshotBytes(t *testing.T) {
	cfg := Config{
		Workload:  smallWorkload(),
		Mechanism: core.KindDSARP,
		Density:   timing.Gb32,
		Seed:      7,
		Warmup:    8_000,
		Measure:   30_000,
	}
	cfg = cfg.WithDefaults()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.RunTo(cfg.Warmup)
	got := s.Snapshot()

	path := filepath.Join("testdata", "golden.snap")
	if os.Getenv("DSARP_UPDATE_SNAP_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes) — bump snap.Version in the same change", path, len(got))
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden snapshot fixture (regenerate with DSARP_UPDATE_SNAP_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot bytes drifted from testdata/golden.snap (got %d bytes, want %d): "+
			"the layout or captured state changed — regenerate the fixture AND bump snap.Version",
			len(got), len(want))
	}
	// The pinned fixture must keep restoring: layout stability is only
	// useful if old snapshots actually load.
	if _, err := RestoreSystem(cfg, want); err != nil {
		t.Fatalf("golden snapshot no longer restores: %v", err)
	}
}
