// Package bitmap implements the footprint bitmaps at the heart of Planaria.
//
// The paper represents the set of blocks accessed within a memory page as a
// bitmap ("footprint snapshot"). Each DRAM channel owns a 16-block segment of
// every 4 KB page, so the per-channel prefetchers use 16-bit bitmaps
// (Seg16); trace-analysis code that looks at whole pages uses 64-bit bitmaps
// (Page64). Both types provide the similarity operations the paper's
// algorithms rely on: population count, overlap (common bits) and Hamming
// difference.
package bitmap

import (
	"math/bits"
	"strconv"
	"strings"
)

// Seg16 is the footprint of one 16-block channel segment of a page.
type Seg16 uint16

// Set marks block offset i (0..15) as accessed.
func (b Seg16) Set(i int) Seg16 { return b | 1<<uint(i&15) }

// Clear unmarks block offset i.
func (b Seg16) Clear(i int) Seg16 { return b &^ (1 << uint(i&15)) }

// Has reports whether block offset i is marked.
func (b Seg16) Has(i int) bool { return b&(1<<uint(i&15)) != 0 }

// Count returns the number of marked blocks.
func (b Seg16) Count() int { return bits.OnesCount16(uint16(b)) }

// Common returns the number of blocks marked in both bitmaps — the
// "common pattern" size used by TLP's neighbour selection (Figure 6).
func (b Seg16) Common(o Seg16) int { return bits.OnesCount16(uint16(b & o)) }

// Diff returns the Hamming distance between the bitmaps — the
// "difference between the bitmap of two pages" used by the learnable-
// neighbour test (Section 4.1, threshold 4 bits).
func (b Seg16) Diff(o Seg16) int { return bits.OnesCount16(uint16(b ^ o)) }

// Minus returns the blocks marked in b but not in o. TLP prefetches
// neighbour.Minus(self): blocks the neighbour accessed that this page has not.
func (b Seg16) Minus(o Seg16) Seg16 { return b &^ o }

// Union returns the combined footprint.
func (b Seg16) Union(o Seg16) Seg16 { return b | o }

// Offsets returns the marked offsets in ascending order.
func (b Seg16) Offsets() []int {
	out := make([]int, 0, b.Count())
	for v := uint16(b); v != 0; {
		i := bits.TrailingZeros16(v)
		out = append(out, i)
		v &^= 1 << uint(i)
	}
	return out
}

// OverlapRate implements the Figure 3 metric: the fraction of blocks in the
// current window that were also accessed in the previous window. Returns 1
// for an empty current window (nothing contradicted the prediction).
func (b Seg16) OverlapRate(prev Seg16) float64 {
	n := b.Count()
	if n == 0 {
		return 1
	}
	return float64(b.Common(prev)) / float64(n)
}

// String renders the bitmap LSB-first, e.g. "1100000000000001".
func (b Seg16) String() string {
	var sb strings.Builder
	for i := 0; i < 16; i++ {
		if b.Has(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Page64 is the footprint of a whole 64-block page, used by the offline
// trace-analysis experiments (Figures 2, 4 and 5).
type Page64 uint64

// Set marks block offset i (0..63).
func (b Page64) Set(i int) Page64 { return b | 1<<uint(i&63) }

// Clear unmarks block offset i.
func (b Page64) Clear(i int) Page64 { return b &^ (1 << uint(i&63)) }

// Has reports whether block offset i is marked.
func (b Page64) Has(i int) bool { return b&(1<<uint(i&63)) != 0 }

// Count returns the number of marked blocks.
func (b Page64) Count() int { return bits.OnesCount64(uint64(b)) }

// Common returns the number of blocks marked in both bitmaps.
func (b Page64) Common(o Page64) int { return bits.OnesCount64(uint64(b & o)) }

// Diff returns the Hamming distance between the bitmaps.
func (b Page64) Diff(o Page64) int { return bits.OnesCount64(uint64(b ^ o)) }

// Minus returns the blocks marked in b but not in o.
func (b Page64) Minus(o Page64) Page64 { return b &^ o }

// Union returns the combined footprint.
func (b Page64) Union(o Page64) Page64 { return b | o }

// Offsets returns the marked offsets in ascending order.
func (b Page64) Offsets() []int {
	out := make([]int, 0, b.Count())
	for v := uint64(b); v != 0; {
		i := bits.TrailingZeros64(v)
		out = append(out, i)
		v &^= 1 << uint(i)
	}
	return out
}

// OverlapRate implements the Figure 3 metric on whole-page footprints.
func (b Page64) OverlapRate(prev Page64) float64 {
	n := b.Count()
	if n == 0 {
		return 1
	}
	return float64(b.Common(prev)) / float64(n)
}

// Segment extracts the 16-bit bitmap of channel segment ch (0..3).
func (b Page64) Segment(ch int) Seg16 {
	return Seg16(uint64(b) >> uint((ch&3)*16) & 0xFFFF)
}

// WithSegment returns b with channel segment ch replaced by s.
func (b Page64) WithSegment(ch int, s Seg16) Page64 {
	sh := uint((ch & 3) * 16)
	return b&^(Page64(0xFFFF)<<sh) | Page64(s)<<sh
}

// FromOffsets builds a Page64 from in-page block offsets.
func FromOffsets(offsets ...int) Page64 {
	var b Page64
	for _, o := range offsets {
		b = b.Set(o)
	}
	return b
}

// String renders the bitmap LSB-first as 64 characters.
func (b Page64) String() string {
	var sb strings.Builder
	for i := 0; i < 64; i++ {
		if b.Has(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// ParsePage64 parses the String form (LSB-first '0'/'1', up to 64 chars).
func ParsePage64(s string) (Page64, error) {
	var b Page64
	for i, c := range s {
		if i >= 64 {
			break
		}
		switch c {
		case '1':
			b = b.Set(i)
		case '0':
		default:
			return 0, &ParseError{Input: s, Pos: i}
		}
	}
	return b, nil
}

// ParseError reports a malformed bitmap string.
type ParseError struct {
	Input string
	Pos   int
}

// Error names the offending position and quotes the input.
func (e *ParseError) Error() string {
	return "bitmap: invalid character at position " + strconv.Itoa(e.Pos) + " in " + strconv.Quote(e.Input)
}
