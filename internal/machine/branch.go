package machine

import "repro/internal/mem"

// BranchPredictor is a gshare-style two-level adaptive predictor: a global
// history register XORed with the branch site indexes a table of 2-bit
// saturating counters. This captures the paper's key observation that rare
// data-dependent events (such as a vector resize inside insert) show up as
// conditional-branch mispredictions.
type BranchPredictor struct {
	table       []uint8 // 2-bit counters, 0..3; >=2 predicts taken
	mask        uint32  // table index mask, len(table)-1
	histMask    uint32  // (1<<histBits)-1, precomputed off the hot path
	history     uint32
	Branches    uint64
	Mispredicts uint64
}

// NewBranchPredictor builds a predictor with 2^tableBits counters and the
// given global-history length in bits.
func NewBranchPredictor(tableBits, histBits uint) *BranchPredictor {
	if tableBits == 0 || tableBits > 24 {
		panic("machine: tableBits must be in 1..24")
	}
	size := 1 << tableBits
	p := &BranchPredictor{table: make([]uint8, size), mask: uint32(size - 1), histMask: uint32(1)<<histBits - 1}
	p.Reset()
	return p
}

// Predict records the outcome of a branch at the given site and returns
// whether the predictor guessed correctly.
func (p *BranchPredictor) Predict(site mem.BranchSite, taken bool) bool {
	idx := (uint32(site)*2654435761 ^ p.history) & p.mask
	ctr := p.table[idx]
	predicted := ctr >= 2
	p.Branches++
	correct := predicted == taken
	if !correct {
		p.Mispredicts++
	}
	if taken {
		if ctr < 3 {
			p.table[idx] = ctr + 1
		}
	} else if ctr > 0 {
		p.table[idx] = ctr - 1
	}
	p.history = ((p.history << 1) | b2u(taken)) & p.histMask
	return correct
}

// MissRate returns mispredicts/branches, or 0 when no branches were seen.
func (p *BranchPredictor) MissRate() float64 {
	if p.Branches == 0 {
		return 0
	}
	return float64(p.Mispredicts) / float64(p.Branches)
}

// Reset clears state and statistics. Unlike the caches and the TLB, the
// predictor refills its table rather than moving to a new epoch: the table
// is small (16 KiB on Core2), and an epoch check on every branch costs more
// than the refill saves. The fill doubles a filled prefix with copy, which
// runs at memmove speed where a byte loop would not.
func (p *BranchPredictor) Reset() {
	p.table[0] = 1 // weakly not-taken
	for n := 1; n < len(p.table); n *= 2 {
		copy(p.table[n:], p.table[:n])
	}
	p.history = 0
	p.Branches = 0
	p.Mispredicts = 0
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
