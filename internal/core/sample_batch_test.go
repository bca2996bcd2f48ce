package core

import (
	"testing"

	"repro/internal/fixture"
	"repro/internal/memo"
)

// TestSampleRanksWideIntoMatchesStream: the flat batch API must consume
// the generator exactly like plan-by-plan NextRankInto — same seed,
// same rank sequence — on a forced-wide small space (exhaustively
// checkable) and on a genuinely multi-limb space (the 2^128 boundary
// chain).
func TestSampleRanksWideIntoMatchesStream(t *testing.T) {
	cases := map[string]struct {
		m    *memo.Memo
		opts []Option
	}{
		"fixture-forced-wide": {m: fixture.New().Memo, opts: []Option{WithWideArithmetic()}},
		"chain-2^128":         {m: chainMemo(128)},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			s, err := Prepare(tc.m, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if !s.Wide() {
				t.Fatalf("space not on the wide tier (%s)", s.Arithmetic())
			}
			const k = 257 // not a multiple of any internal chunking
			stride := s.RankLimbs()

			ref, err := s.NewSampler(42)
			if err != nil {
				t.Fatal(err)
			}
			refBuf := make([]uint64, stride)
			want := make([][]uint64, k)
			for i := range want {
				want[i] = append([]uint64(nil), ref.NextRankInto(refBuf)...)
			}

			smp, err := s.NewSampler(42)
			if err != nil {
				t.Fatal(err)
			}
			flat := make([]uint64, k*stride)
			if err := smp.SampleRanksWideInto(flat, k); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < k; i++ {
				got := WideNorm(flat[i*stride : (i+1)*stride])
				if bigFromLimbs(got).Cmp(bigFromLimbs(want[i])) != 0 {
					t.Fatalf("draw %d: batch %s, stream %s", i, bigFromLimbs(got), bigFromLimbs(want[i]))
				}
			}

			// Every batched rank unranks to a valid plan of the space.
			var arena Arena
			for i := 0; i < k; i++ {
				r := WideNorm(flat[i*stride : (i+1)*stride])
				p, err := s.UnrankWideInto(r, &arena)
				if err != nil {
					t.Fatalf("unrank batched draw %d: %v", i, err)
				}
				if err := p.Validate(); err != nil {
					t.Fatalf("batched draw %d invalid: %v", i, err)
				}
			}
		})
	}
}

// TestSampleRanksWideIntoErrors: buffer-size misuse comes back as an
// error, not corruption. A uint64-tier sampler takes the same call,
// with a stride of one limb.
func TestSampleRanksWideIntoErrors(t *testing.T) {
	fast, err := Prepare(fixture.New().Memo)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := fast.NewSampler(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.SampleRanksWideInto(make([]uint64, 3), 4); err == nil {
		t.Error("short buffer accepted on the uint64 tier")
	}
	if err := fs.SampleRanksWideInto(make([]uint64, 4), 4); err != nil {
		t.Errorf("uint64-tier SampleRanksWideInto: %v", err)
	}

	wide, err := Prepare(fixture.New().Memo, WithWideArithmetic())
	if err != nil {
		t.Fatal(err)
	}
	ws, err := wide.NewSampler(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.SampleRanksWideInto(make([]uint64, wide.RankLimbs()*3), 4); err == nil {
		t.Error("short buffer accepted (3 ranks of room, 4 requested)")
	}
}
