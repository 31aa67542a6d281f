package prefetch

import "repro/internal/addr"

// NextLine prefetches the next Degree blocks after every demand miss. It is
// the classic sequential baseline; at the system-cache level its accuracy is
// poor because the higher-level caches have already absorbed most sequential
// locality.
type NextLine struct {
	Degree int
}

// NewNextLine returns a next-line prefetcher with the given degree.
func NewNextLine(degree int) *NextLine {
	return &NextLine{Degree: degree}
}

// Name implements Prefetcher.
func (p *NextLine) Name() string { return "nextline" }

// Train implements Prefetcher (stateless).
func (p *NextLine) Train(Access) {}

// Issue implements Prefetcher: on a miss, the next Degree blocks of the same
// channel segment (the unit this prefetcher instance owns).
func (p *NextLine) Issue(a Access) []addr.BlockNum {
	return p.IssueTo(a, nil)
}

// IssueTo implements BufferedIssuer.
func (p *NextLine) IssueTo(a Access, dst []addr.BlockNum) []addr.BlockNum {
	if !a.Miss {
		return dst
	}
	return p.Peek(a, dst)
}

// Peek implements Component. NextLine is stateless, so Peek and Issue
// predict identically.
func (p *NextLine) Peek(a Access, dst []addr.BlockNum) []addr.BlockNum {
	if !a.Miss {
		return dst
	}
	page := a.Block.Page()
	ch := a.Block.Channel()
	so := a.Block.SegOffset()
	for i := 1; i <= p.Degree; i++ {
		n := so + i
		if n >= addr.SegmentBlocks {
			break
		}
		dst = append(dst, page.Block(addr.OffsetOf(ch, n)))
	}
	return dst
}

// StorageBits implements Prefetcher.
func (p *NextLine) StorageBits() int { return 0 }

// Reset implements Prefetcher.
func (p *NextLine) Reset() {}

// strideEntry tracks one page's last segment offset and stride.
type strideEntry struct {
	page       addr.PageNum
	lastOff    int
	stride     int
	confidence int
	valid      bool
}

// Stride is a PC-free per-page stride prefetcher: it learns a constant
// segment-offset stride per page and prefetches ahead once the stride has
// been confirmed twice. Included as an additional delta-family baseline.
type Stride struct {
	table  []strideEntry
	degree int
}

// NewStride returns a stride prefetcher with the given table size (rounded
// up to a power of two) and prefetch degree.
func NewStride(tableSize, degree int) *Stride {
	n := 1
	for n < tableSize {
		n <<= 1
	}
	return &Stride{table: make([]strideEntry, n), degree: degree}
}

// Name implements Prefetcher.
func (p *Stride) Name() string { return "stride" }

func (p *Stride) slot(page addr.PageNum) *strideEntry {
	return &p.table[uint64(page)&uint64(len(p.table)-1)]
}

// Train implements Prefetcher.
func (p *Stride) Train(a Access) {
	e := p.slot(a.Page())
	off := a.Block.SegOffset()
	if !e.valid || e.page != a.Page() {
		*e = strideEntry{page: a.Page(), lastOff: off, valid: true}
		return
	}
	d := off - e.lastOff
	if d == 0 {
		return
	}
	if d == e.stride {
		if e.confidence < 3 {
			e.confidence++
		}
	} else {
		e.stride = d
		e.confidence = 0
	}
	e.lastOff = off
}

// Issue implements Prefetcher.
func (p *Stride) Issue(a Access) []addr.BlockNum {
	return p.IssueTo(a, nil)
}

// IssueTo implements BufferedIssuer: Peek into the caller's buffer (the
// stride table is only read, so Issue and Peek predict identically).
func (p *Stride) IssueTo(a Access, dst []addr.BlockNum) []addr.BlockNum {
	return p.Peek(a, dst)
}

// Peek implements Component: the same prediction as Issue, appended to dst,
// with no state mutation (the stride table is only read).
func (p *Stride) Peek(a Access, dst []addr.BlockNum) []addr.BlockNum {
	e := p.slot(a.Page())
	if !e.valid || e.page != a.Page() || e.confidence < 2 || e.stride == 0 {
		return dst
	}
	page := a.Page()
	ch := a.Block.Channel()
	off := a.Block.SegOffset()
	for i := 1; i <= p.degree; i++ {
		n := off + i*e.stride
		if n < 0 || n >= addr.SegmentBlocks {
			break
		}
		dst = append(dst, page.Block(addr.OffsetOf(ch, n)))
	}
	return dst
}

// StorageBits implements Prefetcher: page tag (36 b) + offset (4 b) +
// stride (5 b) + confidence (2 b) + valid (1 b) per entry.
func (p *Stride) StorageBits() int { return len(p.table) * (36 + 4 + 5 + 2 + 1) }

// Reset implements Prefetcher.
func (p *Stride) Reset() {
	for i := range p.table {
		p.table[i] = strideEntry{}
	}
}
