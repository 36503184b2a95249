package snap

import (
	"fmt"
	"math/rand/v2"
)

// NewPCG returns the PCG generator behind every snapshotted rng stream
// (trace generators, DARP's idle-bank pick). Its two state words are the
// first two outputs of a SplitMix64 stream started at seed, so adjacent
// seeds — sim seeds core i with Seed*1_000_003+i — start in unrelated
// states. The PCG's 128-bit state is the whole stream position:
// Writer.PCG and Reader.PCG save and restore it in O(1).
func NewPCG(seed int64) *rand.PCG {
	s := uint64(seed)
	return rand.NewPCG(splitMix64(&s), splitMix64(&s))
}

func splitMix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// PCG appends a generator's state in its MarshalBinary encoding.
func (w *Writer) PCG(p *rand.PCG) {
	b, _ := p.MarshalBinary() // never fails
	w.Str(string(b))
}

// PCG restores a generator's state in place, so every *rand.Rand (and
// derived sampler) drawing from p stays valid. A malformed encoding is a
// sticky read error.
func (r *Reader) PCG(p *rand.PCG) {
	b := r.Str()
	if r.err != nil {
		return
	}
	if err := p.UnmarshalBinary([]byte(b)); err != nil {
		r.fail(fmt.Errorf("snap: rng state: %w", err))
	}
}
