// Package trace generates synthetic memory-access streams standing in for
// the paper's Pin-driven SPEC CPU2006 / STREAM / TPC / HPCC-RandomAccess
// traces (DESIGN.md substitution 1).
//
// A Generator emits the stream of last-level-cache accesses a benchmark
// produces, each preceded by a gap of non-memory instructions. The four
// workload properties the paper's mechanisms are sensitive to are explicit
// profile knobs:
//
//   - intensity (accesses per kilo-instruction and footprint vs. LLC size,
//     which together set the LLC MPKI used for the paper's intensive /
//     non-intensive split at MPKI >= 10),
//   - read/write mix (dirty-writeback rate, which feeds DARP's
//     write-refresh parallelization),
//   - spatial locality (row-buffer hit potential),
//   - bank-level parallelism (dependent chains limit outstanding misses).
package trace

import (
	"fmt"
	"math"
	"math/rand/v2"

	"dsarp/internal/snap"
)

// Access is one LLC access of a synthetic benchmark.
type Access struct {
	// Gap is the number of non-memory instructions executed before this
	// access.
	Gap int
	// Addr is a byte address within the benchmark's virtual footprint.
	Addr uint64
	// Write marks a store (a potential dirty line and eventual writeback).
	Write bool
}

// Generator produces an endless access stream. Generators are deterministic
// for a given construction seed and are not safe for concurrent use.
type Generator interface {
	Next() Access
	Name() string
}

// Pattern selects the spatial behavior of a profile.
type Pattern int

const (
	// Stream walks the footprint sequentially (STREAM-like).
	Stream Pattern = iota
	// Strided walks with a fixed multi-line stride (HPC array codes).
	Strided
	// Random draws uniformly over the footprint (HPCC RandomAccess).
	Random
	// Zipf draws with a skewed hot-set distribution (transaction processing).
	Zipf
	// Chase is Random with a dependence chain: the next address is only
	// known once the previous load returns, limiting memory-level
	// parallelism (mcf-like pointer chasing).
	Chase
)

func (p Pattern) String() string {
	switch p {
	case Stream:
		return "stream"
	case Strided:
		return "strided"
	case Random:
		return "random"
	case Zipf:
		return "zipf"
	case Chase:
		return "chase"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// Profile parameterizes a synthetic benchmark.
type Profile struct {
	Name string
	// MPKI is the nominal LLC miss rate per kilo-instruction; benchmarks
	// with MPKI >= 10 are classified memory-intensive (paper §5).
	MPKI float64
	// APKI is the LLC access rate per kilo-instruction (>= MPKI; the
	// difference is absorbed by LLC hits).
	APKI float64
	// FootprintBytes is the working-set size. Footprints below the LLC
	// slice size hit mostly in the cache.
	FootprintBytes uint64
	// WriteFrac is the fraction of accesses that are stores.
	WriteFrac float64
	Pattern   Pattern
	// StrideLines is the stride for Strided, in cache lines.
	StrideLines uint64
	// BurstLen is the mean number of consecutive same-region accesses
	// (spatial locality runs) for Random/Zipf/Chase patterns.
	BurstLen int
	// MLPBurst is the number of accesses emitted close together before a
	// long instruction gap. Real programs miss in clusters (a loop touching
	// an array section), which is what gives low-MPKI benchmarks
	// memory-level parallelism; 0 defaults to 4. Dependent-chain profiles
	// (Chase) use 1.
	MLPBurst int
	// MaxOutstanding caps the benchmark's memory-level parallelism
	// (0 = limited only by the core's MSHRs). Chase profiles use 1-2.
	MaxOutstanding int
}

// Intensive reports whether the profile is memory-intensive per the paper's
// MPKI >= 10 threshold.
func (p Profile) Intensive() bool { return p.MPKI >= 10 }

// lineBytes matches the LLC/DRAM line size.
const lineBytes = 64

// gen implements Generator for a Profile. rng (and zipf, which draws from
// it) is backed by src, whose 128-bit PCG state is the whole stream
// position a snapshot needs.
type gen struct {
	p     Profile
	src   *rand.PCG
	rng   *rand.Rand
	zipf  *rand.Zipf
	lines uint64

	pos     uint64 // current line for Stream/Strided
	burst   int    // remaining accesses in the current locality run
	baseRun uint64 // base line of the current run
	meanGap float64

	gapLeft  int // remaining accesses in the current gap cluster
	shortGap float64
	longGap  float64
}

// New builds a deterministic generator for a profile.
func New(p Profile, seed int64) Generator {
	if p.APKI <= 0 {
		p.APKI = p.MPKI
	}
	if p.BurstLen <= 0 {
		p.BurstLen = 1
	}
	if p.StrideLines == 0 {
		p.StrideLines = 1
	}
	lines := p.FootprintBytes / lineBytes
	if lines == 0 {
		lines = 1
	}
	if p.MLPBurst <= 0 {
		p.MLPBurst = 4
	}
	if p.Pattern == Chase {
		p.MLPBurst = 1
	}
	src := snap.NewPCG(seed)
	g := &gen{
		p:       p,
		src:     src,
		rng:     rand.New(src),
		lines:   lines,
		meanGap: 1000 / p.APKI,
	}
	// Cluster the instruction gaps: within a cluster of MLPBurst accesses
	// gaps shrink to a quarter of the mean, and the cluster-leading gap
	// grows to compensate, keeping the overall access rate at APKI.
	b := float64(p.MLPBurst)
	g.shortGap = g.meanGap / 4
	g.longGap = g.meanGap*b - g.shortGap*(b-1)
	if p.Pattern == Zipf {
		// A mildly skewed distribution over the footprint: hot enough to
		// have reuse, flat enough that the hot set exceeds an LLC slice
		// (s=1.2 concentrates so hard the whole hot set caches and the
		// nominal MPKI never materializes).
		g.zipf = rand.NewZipf(g.rng, 1.02, 8, lines-1)
	}
	return g
}

// Name implements Generator.
func (g *gen) Name() string { return g.p.Name }

// AppendState implements snap.Codec: the stream position is the PCG state
// plus the walk/run/gap cursors. Everything else in gen is derived from
// the profile at construction.
func (g *gen) AppendState(w *snap.Writer) {
	w.PCG(g.src)
	w.U64(g.pos)
	w.Int(g.burst)
	w.U64(g.baseRun)
	w.Int(g.gapLeft)
}

// LoadState implements snap.Codec. The PCG state loads in place, so rng
// and zipf keep drawing from it.
func (g *gen) LoadState(r *snap.Reader) error {
	r.PCG(g.src)
	g.pos = r.U64()
	g.burst = r.Int()
	g.baseRun = r.U64()
	g.gapLeft = r.Int()
	return r.Err()
}

// Next implements Generator.
func (g *gen) Next() Access {
	gap := g.nextGap()
	line := g.nextLine()
	write := g.rng.Float64() < g.p.WriteFrac
	return Access{Gap: gap, Addr: line * lineBytes, Write: write}
}

// nextGap draws the instruction gap: exponential around the cluster-phase
// mean, so accesses cluster and spread like real miss streams rather than
// arriving on a fixed beat.
func (g *gen) nextGap() int {
	mean := g.shortGap
	if g.gapLeft <= 0 {
		g.gapLeft = g.p.MLPBurst
		mean = g.longGap
	}
	g.gapLeft--
	if mean <= 1 {
		return int(mean)
	}
	// Exponential with the phase mean via inverse transform.
	u := g.rng.Float64()
	if u == 0 {
		u = 1e-12
	}
	gap := int(-mean * math.Log(u))
	if gap < 0 {
		gap = 0
	}
	if gap > 100_000 {
		gap = 100_000
	}
	return gap
}

func (g *gen) nextLine() uint64 {
	switch g.p.Pattern {
	case Stream:
		g.pos = (g.pos + 1) % g.lines
		return g.pos
	case Strided:
		g.pos = (g.pos + g.p.StrideLines) % g.lines
		return g.pos
	default: // Random, Zipf, Chase: locality runs over a random base
		if g.burst <= 0 {
			g.baseRun = g.draw()
			// Run lengths are geometric with mean BurstLen.
			g.burst = 1
			for g.p.BurstLen > 1 && g.rng.Float64() < 1-1/float64(g.p.BurstLen) {
				g.burst++
			}
			g.pos = 0
		}
		line := (g.baseRun + g.pos) % g.lines
		g.pos++
		g.burst--
		return line
	}
}

func (g *gen) draw() uint64 {
	if g.zipf != nil {
		return g.zipf.Uint64() % g.lines
	}
	return g.rng.Uint64() % g.lines
}
