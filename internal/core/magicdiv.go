package core

import "math/bits"

// magicDiv is a precomputed reciprocal for dividing by a fixed 64-bit
// base (Granlund–Montgomery as implemented by libdivide): the mixed-
// radix decomposition divides by the same context bases on every
// unrank, so Prepare trades one 128/64 division per context for a
// multiply-high (+shift) per unrank — roughly 4× cheaper than the
// hardware DIV the loop would otherwise issue per child slot.
type magicDiv struct {
	magic uint64
	shift uint8 // shift amount
	flags uint8 // combination of divAdd / divPow2
}

const (
	divAdd  = 1 << 0 // quotient needs the add-and-halve fixup
	divPow2 = 1 << 1 // divisor is a power of two: pure shift
)

// newMagicDiv precomputes the reciprocal of d (d >= 1).
func newMagicDiv(d uint64) magicDiv {
	if d&(d-1) == 0 {
		return magicDiv{shift: uint8(bits.TrailingZeros64(d)), flags: divPow2}
	}
	fl := uint8(63 - bits.LeadingZeros64(d)) // floor(log2 d)
	// proposed = floor(2^(64+fl) / d), exact via 128/64 division.
	proposed, rem := bits.Div64(uint64(1)<<fl, 0, d)
	if e := d - rem; e < uint64(1)<<fl {
		// This power suffices without a fixup.
		return magicDiv{magic: proposed + 1, shift: fl}
	}
	// The next power is needed: double with round-up and mark the
	// add-and-halve fixup.
	proposed += proposed
	if twice := rem + rem; twice >= d || twice < rem {
		proposed++
	}
	return magicDiv{magic: proposed + 1, shift: fl, flags: divAdd}
}

// quo returns n / d for the divisor this reciprocal encodes.
func (m magicDiv) quo(n uint64) uint64 {
	if m.flags&divPow2 != 0 {
		return n >> m.shift
	}
	q, _ := bits.Mul64(m.magic, n)
	if m.flags&divAdd != 0 {
		return (((n - q) >> 1) + q) >> m.shift
	}
	return q >> m.shift
}
