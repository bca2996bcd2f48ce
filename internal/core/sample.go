package core

import (
	"fmt"
	"math/big"
	"math/rand"
	"strconv"

	"repro/internal/cost"
	"repro/internal/plan"
)

// Sampler draws plans uniformly at random from a space by generating
// uniform integers in [0, N) and unranking them — the paper's reduction
// of uniform plan sampling to random number generation. A Sampler is
// deterministic for a given seed (experiments are reproducible) and must
// not be shared across goroutines; the underlying Space may be.
//
// Rejection sampling draws ⌈bits(N)/64⌉ generator words per attempt,
// most significant first, and keeps the top bits(N) bits, succeeding
// with probability > 1/2. Both arithmetic tiers consume the generator
// identically — same word count, same order, same top-word shift — so a
// space forced onto the wide tier (WithWideArithmetic) yields
// bit-identical rank sequences to the uint64 fast path for the same
// seed. The wide tier's draw loop reduces the drawn limbs by comparison
// against the total in place: no big.Int, no allocation.
type Sampler struct {
	space *Space
	rng   *rand.Rand
	shift uint // top-word right shift so a draw has exactly bitlen(N) bits

	// uint64 fast path (active when the space fits); the wide tier
	// serves every other space.
	fast    bool
	limit64 uint64

	// wide tier: the draw buffer (most-significant word first) and the
	// limb buffer NextRank and Next draw into.
	words   []uint64
	scratch []uint64
}

// NewSampler returns a seeded sampler over the space.
func (s *Space) NewSampler(seed int64) (*Sampler, error) {
	if s.total.Sign() <= 0 {
		return nil, fmt.Errorf("core: cannot sample from an empty space")
	}
	bits := s.total.BitLen()
	nwords := (bits + 63) / 64
	smp := &Sampler{
		space: s,
		rng:   rand.New(rand.NewSource(seed)),
		shift: uint(nwords*64 - bits),
	}
	if s.fits {
		smp.fast = true
		smp.limit64 = s.total64
	} else {
		smp.words = make([]uint64, nwords)
		smp.scratch = make([]uint64, nwords)
	}
	return smp, nil
}

// Fast reports whether the sampler runs on the uint64 path; NextRank64
// and SampleRanks require it.
func (smp *Sampler) Fast() bool { return smp.fast }

// Wide reports whether the sampler runs on the wide limb tier;
// NextRankInto requires it.
func (smp *Sampler) Wide() bool { return !smp.fast }

// NextRank64 returns a uniform rank in [0, N) on the uint64 path with
// no heap allocation. It panics when the space is served by another
// tier — check Fast (or Space.FitsUint64) first.
func (smp *Sampler) NextRank64() uint64 {
	if !smp.fast {
		panic("core: NextRank64 on a non-uint64-tier sampler; check Fast()")
	}
	for {
		if v := smp.rng.Uint64() >> smp.shift; v < smp.limit64 {
			return v
		}
	}
}

// SampleRanks fills dst with uniform ranks in [0, N) — the batched,
// allocation-free form of NextRank64. Pair with UnrankInto under one
// arena to materialize the plans, or CostInto to cost them.
func (smp *Sampler) SampleRanks(dst []uint64) error {
	if !smp.fast {
		return smp.space.errNotUint64()
	}
	for i := range dst {
		dst[i] = smp.NextRank64()
	}
	return nil
}

// NextRankInto fills dst with a uniform rank in [0, N) as canonical
// little-endian limbs on the wide tier, with no heap allocation; dst
// must have length Space.RankLimbs(). The returned slice is dst
// truncated to canonical length. It panics off the wide tier — check
// Wide() first.
func (smp *Sampler) NextRankInto(dst []uint64) []uint64 {
	if smp.fast {
		panic("core: NextRankInto on a non-wide-tier sampler; check Wide()")
	}
	n := len(smp.words)
	if len(dst) < n {
		panic(fmt.Sprintf("core: NextRankInto buffer holds %d limbs, rank needs %d (Space.RankLimbs)", len(dst), n))
	}
	for {
		for i := range smp.words {
			smp.words[i] = smp.rng.Uint64()
		}
		smp.words[0] >>= smp.shift
		for i := 0; i < n; i++ {
			dst[i] = smp.words[n-1-i]
		}
		if r := wideNorm(dst[:n]); wideCmp(r, smp.space.totalW) < 0 {
			return r
		}
	}
}

// SampleRanksWideInto fills dst with k uniform ranks in [0, N) as
// fixed-stride little-endian limb rows on the wide tier — the batched,
// allocation-free analogue of SampleRanks for spaces beyond 2^64. dst
// must hold at least k × Space.RankLimbs() limbs; row i occupies
// dst[i*stride : (i+1)*stride], zero-padded above the rank's canonical
// length (a flat buffer needs a fixed stride; wideNorm recovers the
// canonical slice). The draws consume the generator exactly like k
// successive NextRankInto calls, so batch and plan-by-plan sampling
// yield identical rank streams for one seed.
func (smp *Sampler) SampleRanksWideInto(dst []uint64, k int) error {
	if smp.fast {
		return fmt.Errorf("core: SampleRanksWideInto on a non-wide-tier sampler; check Wide()")
	}
	stride := len(smp.words)
	if len(dst) < k*stride {
		return fmt.Errorf("core: SampleRanksWideInto buffer holds %d limbs, %d ranks need %d (k x Space.RankLimbs)",
			len(dst), k, k*stride)
	}
	for i := 0; i < k; i++ {
		row := dst[i*stride : (i+1)*stride]
		r := smp.NextRankInto(row)
		// NextRankInto returns the canonical (possibly shorter) slice;
		// zero the padding so each fixed-stride row is canonical-plus-
		// zeros and safe to hand to wideNorm.
		for j := len(r); j < stride; j++ {
			row[j] = 0
		}
	}
	return nil
}

// Draw is one plan drawn by SampleCosts, valid only inside the visit
// call that receives it.
type Draw struct {
	space *Space
	arena *Arena
	r64   uint64   // the rank on the uint64 tier
	rw    []uint64 // the rank's canonical limbs on the wide tier
}

// AppendRank appends the drawn rank in decimal; on the wide tier the
// digits come from limb arithmetic in the loop's arena, with no
// math/big.
func (d *Draw) AppendRank(dst []byte) []byte {
	if d.space.fits {
		return strconv.AppendUint(dst, d.r64, 10)
	}
	d.arena.wide.Reset()
	return AppendWideDecimal(dst, d.rw, &d.arena.wide)
}

// Plan unranks the drawn plan into the loop's arena. The tree is valid
// until visit returns.
func (d *Draw) Plan() (*plan.Node, error) {
	if d.space.fits {
		return d.space.UnrankInto(d.r64, d.arena)
	}
	return d.space.UnrankWideInto(d.rw, d.arena)
}

// SampleCosts draws len(costs) uniform plans and writes each plan's
// cost under m, read straight off its rank (CostInto, CostWideInto):
// no plan tree is built. It is the one draw-and-cost loop per tier,
// shared by the plan-space server's /sample and the experiments' cost
// sampling. Ranks are drawn in batches (SampleRanks,
// SampleRanksWideInto), which consume the generator exactly like
// NextRank64 and NextRankInto, and one arena serves every draw, so the
// loop allocates nothing per plan. visit, when non-nil, is called with
// each draw after its cost is written; an error from visit stops the
// loop.
func (smp *Sampler) SampleCosts(m *cost.Model, costs []float64, visit func(i int, d *Draw) error) error {
	s := smp.space
	var a Arena
	d := &Draw{space: s, arena: &a}
	if smp.fast {
		const chunk = 1024
		var raw [chunk]uint64
		for off := 0; off < len(costs); off += chunk {
			n := min(len(costs)-off, chunk)
			if err := smp.SampleRanks(raw[:n]); err != nil {
				return err
			}
			for i, r := range raw[:n] {
				c, err := s.CostInto(r, m, &a)
				if err != nil {
					return err
				}
				costs[off+i] = c
				if visit != nil {
					d.r64 = r
					if err := visit(off+i, d); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
	const chunk = 256
	stride := len(smp.words)
	raw := make([]uint64, chunk*stride)
	for off := 0; off < len(costs); off += chunk {
		n := min(len(costs)-off, chunk)
		if err := smp.SampleRanksWideInto(raw, n); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			r := wideNorm(raw[i*stride : (i+1)*stride])
			c, err := s.CostWideInto(r, m, &a)
			if err != nil {
				return err
			}
			costs[off+i] = c
			if visit != nil {
				d.rw = r
				if err := visit(off+i, d); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// NextRank returns a uniform rank in [0, N) by rejection sampling on
// bit-strings of N's length: each draw succeeds with probability > 1/2,
// so the expected number of draws is below 2.
func (smp *Sampler) NextRank() *big.Int {
	if smp.fast {
		return new(big.Int).SetUint64(smp.NextRank64())
	}
	return limbsToBig(smp.NextRankInto(smp.scratch))
}

// Next draws one uniform plan with its rank.
func (smp *Sampler) Next() (*big.Int, *plan.Node, error) {
	if smp.fast {
		r := smp.NextRank64()
		p, err := smp.space.unrank64(r, nil)
		if err != nil {
			return nil, nil, err
		}
		return new(big.Int).SetUint64(r), p, nil
	}
	r := smp.NextRankInto(smp.scratch)
	p, err := smp.space.UnrankWide(r)
	if err != nil {
		return nil, nil, err
	}
	return limbsToBig(r), p, nil
}

// Sample draws k plans (with replacement, as in the paper's 10,000-plan
// experiments).
func (smp *Sampler) Sample(k int) ([]*plan.Node, error) {
	out := make([]*plan.Node, 0, k)
	for i := 0; i < k; i++ {
		_, p, err := smp.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// DeriveSeed mixes a worker index into the base seed (splitmix64 step) so
// workers draw independent streams. It is exported as the canonical
// derivation for any caller that shards sampling across workers (e.g.
// the experiments pipeline): using the same derivation keeps parallel
// runs deterministic for a given (seed, k, workers) triple.
func DeriveSeed(seed int64, worker int) int64 {
	z := uint64(seed) + uint64(worker+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
