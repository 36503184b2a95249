package core

import (
	"math/rand/v2"
	"testing"

	"dsarp/internal/snap"
)

// sealDARP seals a DARP policy section for testGeom whose rng field is
// blob and whose schedules, flags and slot clocks are zero.
func sealDARP(t *testing.T, blob string) *snap.Reader {
	t.Helper()
	g := testGeom()
	w := snap.NewWriter()
	w.Section("policy")
	w.Str(blob)
	for i := 0; i < g.Ranks*g.Banks; i++ {
		w.I64(0)
	}
	for i := 0; i < g.Ranks*g.Banks; i++ {
		w.Bool(false)
	}
	for i := 0; i < g.Ranks; i++ {
		w.I64(0)
	}
	return openSection(t, w.Finish())
}

func openSection(t *testing.T, data []byte) *snap.Reader {
	t.Helper()
	r, err := snap.NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Section("policy"); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestDARPLoadStateRNGMalformed(t *testing.T) {
	good, _ := rand.NewPCG(1, 2).MarshalBinary()
	for name, blob := range map[string]string{
		"short":  string(good[:19]),
		"long":   string(good) + "x",
		"prefix": "pcx:" + string(good[4:]),
	} {
		p := newRig(t, KindDSARP, 1).ctrl.Policy().(*DARP)
		if err := p.LoadState(sealDARP(t, blob)); err == nil {
			t.Errorf("%s rng blob accepted", name)
		}
	}
}

// TestDARPLoadStateRNGArbitraryState loads a PCG state no seed is known to
// reach: restore is a copy of the 128-bit state, not a replay.
func TestDARPLoadStateRNGArbitraryState(t *testing.T) {
	want := rand.NewPCG(0xffff_ffff_ffff_fffe, 0x0123_4567_89ab_cdef)
	blob, _ := want.MarshalBinary()
	p := newRig(t, KindDSARP, 1).ctrl.Policy().(*DARP)
	if err := p.LoadState(sealDARP(t, string(blob))); err != nil {
		t.Fatal(err)
	}
	ref := rand.New(want)
	for i := 0; i < 100; i++ {
		if got, w := p.rng.IntN(8), ref.IntN(8); got != w {
			t.Fatalf("pick %d after restore = %d, want %d", i, got, w)
		}
	}
}

// TestDARPLoadStateRNGMidStream snapshots a DARP policy after a loaded run
// and restores it into one built from another seed: the restored rng must
// continue the original's draw sequence.
func TestDARPLoadStateRNGMidStream(t *testing.T) {
	r := newRig(t, KindDSARP, 21)
	r.run(20_000, 60)
	a := r.ctrl.Policy().(*DARP)
	w := snap.NewWriter()
	w.Section("policy")
	a.AppendState(w)
	b := NewDARP(r.ctrl, a.opts, 5)
	if err := b.LoadState(openSection(t, w.Finish())); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if x, y := a.rng.IntN(8), b.rng.IntN(8); x != y {
			t.Fatalf("pick %d after restore = %d, want %d", i, y, x)
		}
	}
}
