// Package addr defines the physical address model shared by every component
// of the Planaria reproduction: 4 KB pages split into 64-byte blocks, with
// each page statically partitioned into four 16-block segments, one per DRAM
// channel (DAC'24 paper, Section 3.2).
//
// All simulator components exchange block-aligned physical addresses
// (type Addr). The helpers here extract page numbers, block offsets, channel
// indices and DRAM coordinates so that the mapping lives in exactly one place.
package addr

import "fmt"

// Fundamental geometry constants. The paper fixes all of these (Table 1 and
// Section 3.1): 4 KB pages, 64 B blocks, four DRAM channels, each channel
// owning one 16-block segment of every page.
const (
	BlockBytes     = 64   // bytes per cache block
	PageBytes      = 4096 // bytes per memory page
	BlocksPerPage  = PageBytes / BlockBytes
	Channels       = 4
	SegmentBlocks  = BlocksPerPage / Channels // blocks per channel segment (16)
	BlockShift     = 6                        // log2(BlockBytes)
	PageShift      = 12                       // log2(PageBytes)
	SegmentShift   = 4                        // log2(SegmentBlocks)
	OffsetMask     = BlocksPerPage - 1
	SegOffsetMask  = SegmentBlocks - 1
	ChannelMask    = Channels - 1
	ChannelBitsLow = BlockShift + SegmentShift // bit position of the channel bits
)

// Addr is a byte-granular physical address. The simulator always works with
// block-aligned addresses; Align truncates arbitrary addresses.
type Addr uint64

// PageNum identifies a 4 KB memory page.
type PageNum uint64

// BlockNum is a block-granular address (Addr >> BlockShift). It is the unit
// the caches and prefetchers operate on.
type BlockNum uint64

// Align truncates a to the containing block boundary.
func (a Addr) Align() Addr { return a &^ (BlockBytes - 1) }

// Block returns the block number containing a.
func (a Addr) Block() BlockNum { return BlockNum(a >> BlockShift) }

// Page returns the page number containing a.
func (a Addr) Page() PageNum { return PageNum(a >> PageShift) }

// Offset returns the block offset within the page, in [0, BlocksPerPage).
func (a Addr) Offset() int { return int(a>>BlockShift) & OffsetMask }

// Addr reconstructs the byte address of the first byte of block b.
func (b BlockNum) Addr() Addr { return Addr(b) << BlockShift }

// Page returns the page containing block b.
func (b BlockNum) Page() PageNum { return PageNum(b >> (PageShift - BlockShift)) }

// Offset returns the block offset within its page, in [0, BlocksPerPage).
func (b BlockNum) Offset() int { return int(b) & OffsetMask }

// Channel returns the DRAM channel serving block b. The paper maps each of
// the four 16-block page segments to a fixed channel, so the channel index is
// the top two bits of the in-page block offset.
func (b BlockNum) Channel() int { return (int(b) >> SegmentShift) & ChannelMask }

// SegOffset returns the block's offset within its 16-block channel segment.
func (b BlockNum) SegOffset() int { return int(b) & SegOffsetMask }

// Base returns the first block of page p.
func (p PageNum) Base() BlockNum { return BlockNum(p) << (PageShift - BlockShift) }

// Addr returns the byte address of the first byte of page p.
func (p PageNum) Addr() Addr { return Addr(p) << PageShift }

// Block returns the block at the given in-page offset (0..63) of page p.
func (p PageNum) Block(offset int) BlockNum {
	return p.Base() + BlockNum(offset&OffsetMask)
}

// Distance returns |p - q| as a uint64, the page-number distance used by the
// TLP neighbour test.
func (p PageNum) Distance(q PageNum) uint64 {
	if p >= q {
		return uint64(p - q)
	}
	return uint64(q - p)
}

// SegmentOf maps an in-page block offset to (channel, segment offset).
func SegmentOf(offset int) (channel, segOffset int) {
	return (offset >> SegmentShift) & ChannelMask, offset & SegOffsetMask
}

// OffsetOf is the inverse of SegmentOf.
func OffsetOf(channel, segOffset int) int {
	return (channel&ChannelMask)<<SegmentShift | (segOffset & SegOffsetMask)
}

// DenseIndex collapses the two channel bits out of a block number, giving
// the block's index in its channel's dense, contiguous block space. Delta
// prefetchers (BOP, SPP, stride) do arithmetic in this space so that
// consecutive channel-local blocks differ by 1.
func DenseIndex(b BlockNum) uint64 {
	return (uint64(b)>>(SegmentShift+channelBits))<<SegmentShift | uint64(b)&uint64(SegOffsetMask)
}

// FromDense is the inverse of DenseIndex for the given channel.
func FromDense(channel int, dense uint64) BlockNum {
	hi := dense >> SegmentShift
	lo := dense & uint64(SegOffsetMask)
	return BlockNum(hi<<(SegmentShift+channelBits) |
		uint64(channel&ChannelMask)<<SegmentShift | lo)
}

const channelBits = 2 // log2(Channels)

// String implements fmt.Stringer for debugging.
func (b BlockNum) String() string {
	return fmt.Sprintf("blk{page=%#x off=%d ch=%d}", uint64(b.Page()), b.Offset(), b.Channel())
}

// DRAMGeometry describes the per-channel DRAM organisation used when mapping
// block addresses to bank/row/column coordinates (Table 1: 1 rank, 8 banks
// per channel).
type DRAMGeometry struct {
	Banks     int // banks per channel
	RowBytes  int // bytes per row (row buffer size)
	BankShift uint
	RowShift  uint
	bankMask  uint64
	rowInit   bool
}

// DefaultDRAMGeometry matches Table 1 of the paper: 8 banks per channel and a
// 2 KB row buffer (typical LPDDR4 x16 density).
func DefaultDRAMGeometry() DRAMGeometry {
	g := DRAMGeometry{Banks: 8, RowBytes: 2048}
	g.finish()
	return g
}

func (g *DRAMGeometry) finish() {
	g.BankShift = uint(log2(uint64(g.RowBytes / BlockBytes)))
	g.RowShift = g.BankShift + uint(log2(uint64(g.Banks)))
	g.bankMask = uint64(g.Banks - 1)
	g.rowInit = true
}

// Coord is a DRAM coordinate within one channel.
type Coord struct {
	Bank int
	Row  uint64
	Col  int
}

// Map converts a block number to its DRAM coordinate within the block's
// channel. Blocks that are consecutive within one channel segment map to
// consecutive columns of the same row, so a page's segment enjoys row-buffer
// locality — the property Planaria's batched footprint prefetches exploit.
func (g DRAMGeometry) Map(b BlockNum) Coord {
	if !g.rowInit {
		g = DefaultDRAMGeometry()
	}
	dense := DenseIndex(b)
	colBlocks := uint64(g.RowBytes / BlockBytes)
	return Coord{
		Col:  int(dense % colBlocks),
		Bank: int((dense >> g.BankShift) & g.bankMask),
		Row:  dense >> g.RowShift,
	}
}

func log2(v uint64) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
