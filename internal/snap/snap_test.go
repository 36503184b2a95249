package snap

import (
	"bytes"
	"errors"
	"math"
	"math/bits"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	w := NewWriter()
	w.Section("alpha")
	w.U64(42)
	w.I64(-7)
	w.Int(123456)
	w.Bool(true)
	w.Bool(false)
	w.F64(3.5)
	w.Str("hello")
	w.Section("beta")
	w.I64(math.MinInt64)
	data := w.Finish()

	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Section("alpha"); err != nil {
		t.Fatal(err)
	}
	if got := r.U64(); got != 42 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.I64(); got != -7 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.Int(); got != 123456 {
		t.Errorf("Int = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip")
	}
	if got := r.F64(); got != 3.5 {
		t.Errorf("F64 = %v", got)
	}
	if got := r.Str(); got != "hello" {
		t.Errorf("Str = %q", got)
	}
	if err := r.Section("beta"); err != nil {
		t.Fatal(err)
	}
	if got := r.I64(); got != math.MinInt64 {
		t.Errorf("I64 min = %d", got)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicBytes(t *testing.T) {
	build := func() []byte {
		w := NewWriter()
		w.Section("s")
		w.U64(1)
		w.Str("x")
		return w.Finish()
	}
	if !bytes.Equal(build(), build()) {
		t.Error("identical writes produced different bytes")
	}
}

func TestCorruptionDetected(t *testing.T) {
	w := NewWriter()
	w.Section("s")
	w.U64(99)
	data := w.Finish()
	for i := range data {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x01
		if _, err := NewReader(bad); err == nil {
			t.Fatalf("flipping byte %d went undetected", i)
		}
	}
}

func TestVersionMismatch(t *testing.T) {
	w := NewWriter()
	w.Section("s")
	w.U64(1)
	data := w.Finish()
	bad := bytes.Replace(data, []byte(Version), []byte("dsarp-snap-v0"), 1)
	_, err := NewReader(bad)
	if !errors.Is(err, ErrVersion) {
		t.Errorf("got %v, want ErrVersion", err)
	}
}

func TestSectionNameMismatch(t *testing.T) {
	w := NewWriter()
	w.Section("right")
	w.U64(1)
	r, err := NewReader(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Section("wrong"); err == nil {
		t.Error("wrong section name accepted")
	}
}

func TestUnconsumedBytesDetected(t *testing.T) {
	w := NewWriter()
	w.Section("a")
	w.U64(1)
	w.U64(2)
	w.Section("b")
	w.U64(3)
	r, err := NewReader(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Section("a"); err != nil {
		t.Fatal(err)
	}
	r.U64() // leave one value unread
	if err := r.Section("b"); err == nil {
		t.Error("unconsumed section bytes went undetected")
	}
}

func TestOverreadDetected(t *testing.T) {
	w := NewWriter()
	w.Section("a")
	w.U64(1)
	r, err := NewReader(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Section("a"); err != nil {
		t.Fatal(err)
	}
	r.U64()
	r.U64() // past the section body
	if r.Err() == nil {
		t.Error("read past section end went undetected")
	}
}

func TestInvalidBool(t *testing.T) {
	w := NewWriter()
	w.Section("a")
	w.buf = append(w.buf, 7) // raw invalid bool byte
	r, err := NewReader(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Section("a"); err != nil {
		t.Fatal(err)
	}
	r.Bool()
	if r.Err() == nil {
		t.Error("invalid bool byte accepted")
	}
}

func TestReaderCount(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n     int
		elems int // 8-byte elements actually following the count
		max   int
		ok    bool
	}{
		{"fits", 3, 3, 4, true},
		{"zero", 0, 0, 4, true},
		{"negative", -1, 0, 4, false},
		{"above max", 5, 5, 4, false},
		{"overruns section", 1 << 40, 2, math.MaxInt, false},
	} {
		w := NewWriter()
		w.Section("s")
		w.Int(tc.n)
		for i := 0; i < tc.elems; i++ {
			w.U64(uint64(i))
		}
		r, err := NewReader(w.Finish())
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Section("s"); err != nil {
			t.Fatal(err)
		}
		got := r.Count(tc.max, 8)
		if tc.ok && (r.Err() != nil || got != tc.n) {
			t.Errorf("%s: Count = %d, err %v; want %d", tc.name, got, r.Err(), tc.n)
		}
		if !tc.ok && (r.Err() == nil || got != 0) {
			t.Errorf("%s: Count = %d accepted", tc.name, got)
		}
	}
}

// TestNewPCGAdjacentSeeds guards the seed mix: sim seeds core i with
// Seed*1_000_003+i, so adjacent seeds must not start in adjacent states.
func TestNewPCGAdjacentSeeds(t *testing.T) {
	a, _ := NewPCG(41).MarshalBinary()
	b, _ := NewPCG(42).MarshalBinary()
	diff := 0
	for i := range a {
		diff += bits.OnesCount8(a[i] ^ b[i])
	}
	if diff < 32 {
		t.Errorf("seeds 41 and 42 start %d state bits apart, want a full avalanche", diff)
	}
}
