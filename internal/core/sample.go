package core

import (
	"fmt"
	"math/big"
	"math/rand"

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
// with probability > 1/2. The draw depends only on N, not on the tier
// serving the space, so a space forced onto the wide tier
// (WithWideArithmetic) yields the same rank sequence as the uint64 tier
// for the same seed. NextRankInto is the one draw routine: it compares
// the drawn limbs against the total in place, with no big.Int and no
// allocation.
type Sampler struct {
	space *Space
	rng   *rand.Rand
	shift uint // top-word right shift so a draw has exactly bitlen(N) bits

	// scratch is the rank buffer of NextRank, Next and SampleCosts; its
	// length, Space.RankLimbs, is the generator words per draw.
	scratch []uint64
}

// NewSampler returns a seeded sampler over the space.
func (s *Space) NewSampler(seed int64) (*Sampler, error) {
	if s.total.Sign() <= 0 {
		return nil, fmt.Errorf("core: cannot sample from an empty space")
	}
	bits := s.total.BitLen()
	limbs := (bits + 63) / 64
	return &Sampler{
		space:   s,
		rng:     rand.New(rand.NewSource(seed)),
		shift:   uint(limbs*64 - bits),
		scratch: make([]uint64, limbs),
	}, nil
}

// Fast reports whether the sampler's space runs on the uint64 tier.
func (smp *Sampler) Fast() bool { return smp.space.fits }

// Wide reports whether the sampler's space runs on the wide limb tier.
func (smp *Sampler) Wide() bool { return !smp.space.fits }

// NextRankInto fills dst with a uniform rank in [0, N) as canonical
// little-endian limbs, with no heap allocation; dst must have length
// Space.RankLimbs(). The returned slice is dst truncated to canonical
// length.
func (smp *Sampler) NextRankInto(dst []uint64) []uint64 {
	n := len(smp.scratch)
	if len(dst) < n {
		panic(fmt.Sprintf("core: NextRankInto buffer holds %d limbs, rank needs %d (Space.RankLimbs)", len(dst), n))
	}
	for {
		for i := n - 1; i >= 0; i-- {
			dst[i] = smp.rng.Uint64()
		}
		dst[n-1] >>= smp.shift
		if r := wideNorm(dst[:n]); wideCmp(r, smp.space.totalW) < 0 {
			return r
		}
	}
}

// SampleRanksWideInto fills dst with k uniform ranks in [0, N) as
// fixed-stride little-endian limb rows — the batched, allocation-free
// form of NextRankInto. dst must hold at least k × Space.RankLimbs()
// limbs; row i occupies dst[i*stride : (i+1)*stride], zero-padded above
// the rank's canonical length (a flat buffer needs a fixed stride;
// WideNorm recovers the canonical slice). The draws consume the
// generator exactly like k successive NextRankInto calls.
func (smp *Sampler) SampleRanksWideInto(dst []uint64, k int) error {
	stride := len(smp.scratch)
	if len(dst) < k*stride {
		return fmt.Errorf("core: SampleRanksWideInto buffer holds %d limbs, %d ranks need %d (k x Space.RankLimbs)",
			len(dst), k, k*stride)
	}
	for i := 0; i < k; i++ {
		row := dst[i*stride : (i+1)*stride]
		clear(row[len(smp.NextRankInto(row)):])
	}
	return nil
}

// SampleRanks fills dst with uniform ranks in [0, N) held in one uint64
// each: SampleRanksWideInto with a stride of one limb, for spaces whose
// ranks fit 64 bits.
func (smp *Sampler) SampleRanks(dst []uint64) error {
	if n := len(smp.scratch); n != 1 {
		return fmt.Errorf("core: ranks of this space take %d limbs; use SampleRanksWideInto", n)
	}
	return smp.SampleRanksWideInto(dst, len(dst))
}

// Draw is one plan drawn by SampleCosts, valid only inside the visit
// call that receives it.
type Draw struct {
	space *Space
	arena *Arena
	rank  []uint64 // canonical limbs
}

// AppendRank appends the drawn rank in decimal (AppendWideDecimal),
// with no math/big.
func (d *Draw) AppendRank(dst []byte) []byte {
	d.arena.wide.Reset()
	return AppendWideDecimal(dst, d.rank, &d.arena.wide)
}

// Plan unranks the drawn plan into the loop's arena. The tree is valid
// until visit returns.
func (d *Draw) Plan() (*plan.Node, error) {
	return d.space.UnrankWideInto(d.rank, d.arena)
}

// SampleCosts draws len(costs) uniform plans and writes each plan's
// cost under m, read straight off its rank (CostWideInto): no plan tree
// is built. It is the one draw-and-cost loop, shared by the plan-space
// server's /sample and the experiments' cost sampling. Ranks are drawn
// by NextRankInto, so the loop sees the same ranks as NextRank for the
// same seed, and one arena serves every draw, so it allocates nothing
// per plan. visit, when non-nil, is called with each draw after its
// cost is written; an error from visit stops the loop.
func (smp *Sampler) SampleCosts(m *cost.Model, costs []float64, visit func(i int, d *Draw) error) error {
	var a Arena
	d := &Draw{space: smp.space, arena: &a}
	for i := range costs {
		d.rank = smp.NextRankInto(smp.scratch)
		c, err := smp.space.CostWideInto(d.rank, m, &a)
		if err != nil {
			return err
		}
		costs[i] = c
		if visit != nil {
			if err := visit(i, d); err != nil {
				return err
			}
		}
	}
	return nil
}

// NextRank returns a uniform rank in [0, N) by rejection sampling on
// bit-strings of N's length: each draw succeeds with probability > 1/2,
// so the expected number of draws is below 2.
func (smp *Sampler) NextRank() *big.Int {
	return limbsToBig(smp.NextRankInto(smp.scratch))
}

// Next draws one uniform plan with its rank. The plan is freshly
// allocated.
func (smp *Sampler) Next() (*big.Int, *plan.Node, error) {
	r := smp.NextRankInto(smp.scratch)
	p, err := smp.space.UnrankWideInto(r, nil)
	if err != nil {
		return nil, nil, err
	}
	return limbsToBig(r), p, nil
}
