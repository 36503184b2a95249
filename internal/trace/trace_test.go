package trace

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"dsarp/internal/snap"
)

func prof(p Pattern) Profile {
	return Profile{
		Name: "t", MPKI: 20, APKI: 25, FootprintBytes: 1 << 20,
		WriteFrac: 0.3, Pattern: p, BurstLen: 4, StrideLines: 4,
	}
}

func TestDeterministicForSeed(t *testing.T) {
	for _, p := range []Pattern{Stream, Strided, Random, Zipf, Chase} {
		a := New(prof(p), 42)
		b := New(prof(p), 42)
		for i := 0; i < 1000; i++ {
			if a.Next() != b.Next() {
				t.Fatalf("%v: generators with equal seeds diverged at access %d", p, i)
			}
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a := New(prof(Random), 1)
	b := New(prof(Random), 2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same > 10 {
		t.Errorf("different seeds produced %d/100 identical accesses", same)
	}
}

func TestAddressesStayInFootprint(t *testing.T) {
	f := func(seed int64, patt uint8) bool {
		p := prof(Pattern(int(patt) % 5))
		g := New(p, seed)
		for i := 0; i < 500; i++ {
			if g.Next().Addr >= p.FootprintBytes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddressesLineAligned(t *testing.T) {
	g := New(prof(Random), 3)
	for i := 0; i < 500; i++ {
		if a := g.Next().Addr; a%64 != 0 {
			t.Fatalf("address %#x not line-aligned", a)
		}
	}
}

func TestWriteFraction(t *testing.T) {
	g := New(prof(Random), 5)
	writes := 0
	const n = 20_000
	for i := 0; i < n; i++ {
		if g.Next().Write {
			writes++
		}
	}
	frac := float64(writes) / n
	if frac < 0.27 || frac > 0.33 {
		t.Errorf("write fraction = %.3f, want ~0.30", frac)
	}
}

func TestMeanGapMatchesAPKI(t *testing.T) {
	g := New(prof(Random), 7)
	var total int64
	const n = 50_000
	for i := 0; i < n; i++ {
		total += int64(g.Next().Gap) + 1
	}
	apki := 1000 * float64(n) / float64(total)
	if apki < 20 || apki > 30 {
		t.Errorf("measured APKI = %.1f, want ~25", apki)
	}
}

func TestStreamIsSequential(t *testing.T) {
	p := prof(Stream)
	g := New(p, 9)
	prev := g.Next().Addr
	for i := 0; i < 100; i++ {
		cur := g.Next().Addr
		if cur != prev+64 && cur != 0 { // wraps at footprint end
			t.Fatalf("stream jumped from %#x to %#x", prev, cur)
		}
		prev = cur
	}
}

func TestStridedStride(t *testing.T) {
	p := prof(Strided)
	g := New(p, 9)
	prev := g.Next().Addr
	for i := 0; i < 100; i++ {
		cur := g.Next().Addr
		want := (prev + 4*64) % p.FootprintBytes
		if cur != want {
			t.Fatalf("stride walk: %#x -> %#x, want %#x", prev, cur, want)
		}
		prev = cur
	}
}

func TestZipfSkew(t *testing.T) {
	p := prof(Zipf)
	p.BurstLen = 1
	g := New(p, 11)
	counts := map[uint64]int{}
	const n = 20_000
	for i := 0; i < n; i++ {
		counts[g.Next().Addr]++
	}
	// A Zipf(1.2) stream concentrates: the single hottest line should take
	// a far larger share than uniform (1/16384 of the footprint).
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	if float64(maxCount)/n < 0.01 {
		t.Errorf("hottest line share %.4f, want skewed > 0.01", float64(maxCount)/n)
	}
}

func TestRandomSpreads(t *testing.T) {
	p := prof(Random)
	p.BurstLen = 1
	g := New(p, 13)
	seen := map[uint64]bool{}
	for i := 0; i < 2000; i++ {
		seen[g.Next().Addr] = true
	}
	if len(seen) < 1500 {
		t.Errorf("random stream revisits too much: %d distinct of 2000", len(seen))
	}
}

func TestGapClusteringShape(t *testing.T) {
	// Gaps alternate between one long cluster-leading gap and MLPBurst-1
	// short ones; the short-gap share must dominate.
	p := prof(Random)
	p.MLPBurst = 4
	g := New(p, 15)
	short := 0
	const n = 10_000
	for i := 0; i < n; i++ {
		if float64(g.Next().Gap) < 1000/p.APKI {
			short++
		}
	}
	if float64(short)/n < 0.6 {
		t.Errorf("short-gap share %.2f, want clustered >= 0.6", float64(short)/n)
	}
}

func TestChaseForcesMLP1(t *testing.T) {
	p := prof(Chase)
	p.MLPBurst = 8 // must be overridden to 1 for dependent chains
	g := New(p, 17).(*gen)
	if g.p.MLPBurst != 1 {
		t.Errorf("Chase MLPBurst = %d, want 1", g.p.MLPBurst)
	}
}

func TestIntensiveClassification(t *testing.T) {
	if !(Profile{MPKI: 10}).Intensive() {
		t.Error("MPKI 10 must classify intensive (paper: MPKI >= 10)")
	}
	if (Profile{MPKI: 9.9}).Intensive() {
		t.Error("MPKI 9.9 must classify non-intensive")
	}
}

// sealGen snapshots a generator section whose rng field is blob and whose
// cursors are zero, the way a peer holding the unkeyed seal could.
func sealGen(t *testing.T, blob string) *snap.Reader {
	t.Helper()
	w := snap.NewWriter()
	w.Section("gen")
	w.Str(blob)
	w.U64(0)
	w.Int(0)
	w.U64(0)
	w.Int(0)
	r, err := snap.NewReader(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Section("gen"); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestLoadStateRNGMalformed(t *testing.T) {
	good, _ := rand.NewPCG(1, 2).MarshalBinary()
	for name, blob := range map[string]string{
		"short":  string(good[:19]),
		"long":   string(good) + "x",
		"prefix": "pcx:" + string(good[4:]),
		"empty":  "",
	} {
		g := New(prof(Zipf), 1).(*gen)
		if err := g.LoadState(sealGen(t, blob)); err == nil {
			t.Errorf("%s rng blob accepted", name)
		}
	}
}

// TestLoadStateRNGArbitraryState loads a PCG state no seed is known to
// reach: restore is a copy of the 128-bit state, not a replay from a seed.
func TestLoadStateRNGArbitraryState(t *testing.T) {
	want := rand.NewPCG(0xffff_ffff_ffff_fffe, 0x0123_4567_89ab_cdef)
	blob, _ := want.MarshalBinary()
	g := New(prof(Random), 1).(*gen)
	if err := g.LoadState(sealGen(t, string(blob))); err != nil {
		t.Fatal(err)
	}
	ref := rand.New(want)
	for i := 0; i < 100; i++ {
		if got, w := g.rng.Uint64(), ref.Uint64(); got != w {
			t.Fatalf("draw %d after restore = %#x, want %#x", i, got, w)
		}
	}
}

// TestLoadStateRNGMidStream snapshots a generator mid-stream and restores
// it into one built from another seed: the restored stream must continue
// draw for draw, Zipf sampler included.
func TestLoadStateRNGMidStream(t *testing.T) {
	for _, p := range []Pattern{Random, Zipf, Chase} {
		a := New(prof(p), 42)
		for i := 0; i < 5000; i++ {
			a.Next()
		}
		w := snap.NewWriter()
		w.Section("gen")
		a.(snap.Codec).AppendState(w)
		r, err := snap.NewReader(w.Finish())
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Section("gen"); err != nil {
			t.Fatal(err)
		}
		b := New(prof(p), 7)
		if err := b.(snap.Codec).LoadState(r); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5000; i++ {
			if x, y := a.Next(), b.Next(); x != y {
				t.Fatalf("%v: access %d after restore = %+v, want %+v", p, i, y, x)
			}
		}
	}
}
