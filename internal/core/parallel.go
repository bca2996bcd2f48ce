package core

import (
	"fmt"
	"sync"

	"repro/internal/plan"
)

// SampleParallel draws k uniform plans using w workers. The Space is
// immutable and safe to share; each worker owns a Sampler seeded
// deterministically from (seed, worker index) and fills a fixed slice
// region, so the output is reproducible for a given (seed, k, w)
// regardless of goroutine scheduling — experiments stay deterministic
// even when parallelized.
func (s *Space) SampleParallel(seed int64, k, workers int) ([]*plan.Node, error) {
	if k < 0 {
		return nil, fmt.Errorf("core: negative sample size %d", k)
	}
	if workers <= 1 || k <= 1 {
		smp, err := s.NewSampler(seed)
		if err != nil {
			return nil, err
		}
		return smp.Sample(k)
	}
	if workers > k {
		workers = k
	}
	out := make([]*plan.Node, k)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * k / workers
		hi := (w + 1) * k / workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			smp, err := s.NewSampler(DeriveSeed(seed, w))
			if err != nil {
				errs[w] = err
				return
			}
			if smp.Fast() {
				// Batched fast path: draw all ranks, then unrank
				// straight into the worker's output region. The rank
				// stream is identical to the Next loop below (one
				// generator word per accepted draw), so results do not
				// depend on which path ran.
				ranks := make([]uint64, hi-lo)
				if err := smp.SampleRanks(ranks); err != nil {
					errs[w] = err
					return
				}
				for i, r := range ranks {
					p, err := s.Unrank64(r)
					if err != nil {
						errs[w] = err
						return
					}
					out[lo+i] = p
				}
				return
			}
			// Wide tier: one reused limb buffer and one reused scratch
			// arena per worker; plans are freshly allocated because the
			// output retains them.
			buf := make([]uint64, s.RankLimbs())
			var wa WideArena
			for i := lo; i < hi; i++ {
				wa.Reset()
				p, err := s.unrankWide(smp.NextRankInto(buf), nil, &wa)
				if err != nil {
					errs[w] = err
					return
				}
				out[i] = p
			}
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
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
