// Package workloads synthesises memory-bus traces with the statistical
// structure the Planaria paper measures on real phones (Table 2 apps).
//
// The paper's traces are proprietary, so this package is the DESIGN.md
// substitution: each application is a parameterised generative model tuned
// to reproduce the trace *properties* the prefetchers key on —
//
//   - footprint visits: a page's blocks are touched once each, in
//     non-deterministic order, within a short interval (Figure 2), and the
//     footprint is stable across visits (Figure 4: >80 % overlap);
//   - inter-page similarity: pages cluster into regions whose members have
//     nearly identical footprints at nearby page numbers (Figure 5);
//   - interleaving: many episodes from different SoC devices are in flight
//     at once, so the bus-level delta sequence is scrambled even though
//     per-page footprints are intact (the reason delta prefetchers lose);
//   - filtered locality: a block is accessed once per visit (higher-level
//     caches absorb short-term reuse), so the SC sees long reuse distances.
//
// All generation is deterministic per profile seed.
package workloads

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/addr"
	"repro/internal/bitmap"
	"repro/internal/trace"
)

// DeviceWeight gives a device's share of episodes.
type DeviceWeight struct {
	Device trace.Device
	Weight float64
}

// Profile is the generative model of one application.
type Profile struct {
	Name        string
	Abbr        string
	Description string
	Seed        int64

	// Address-space structure.
	HotPages      int     // resident hot pages (standalone + clustered)
	ClusterFrac   float64 // fraction of hot pages allocated inside clusters
	Regions       int     // live regions that spawn cold pages during the run
	RegionSpanMin int     // members per region, lower bound
	RegionSpanMax int     // members per region, upper bound
	RegionNoise   int     // footprint bits flipped between a member and its prototype
	MaxPages      int     // bound on the live page set (older pages retire)

	FootprintMin int     // blocks per page footprint, lower bound (of 64)
	FootprintMax int     // upper bound
	VisitNoise   float64 // per-visit probability a footprint block is skipped
	HaloRate     float64 // per-visit probability of touching a halo block

	// Episode mix. The rates are approximate *record* shares (fractions
	// of bus requests), not episode counts: episode-kind selection is
	// weighted by the reciprocal of each kind's expected length, so a
	// StreamRate of 0.10 yields about 10 % streaming requests even
	// though stream episodes are several times longer than page visits.
	ColdPageRate   float64 // visit a never-seen page of an active region
	StreamRate     float64 // sequential stream episode
	RandomRate     float64 // scattered accesses in the bounded random area
	RegionAffinity float64 // bias to keep new episodes in recently active regions

	// Revisit locality: with probability HotSkew a revisit targets one of
	// the RecentWindow most recently touched pages (phase working set);
	// otherwise any live page. This sets the baseline SC hit rate.
	HotSkew      float64
	RecentWindow int

	RandomPages int // distinct pages in the random ("heap churn") area

	Parallelism   int     // concurrently active episodes
	MeanGap       float64 // mean cycles between consecutive bus requests
	WriteFraction float64
	Devices       []DeviceWeight
}

// Validate reports implausible parameter combinations.
func (p Profile) Validate() error {
	switch {
	case p.HotPages < 0 || p.Regions < 0:
		return fmt.Errorf("workloads %s: negative structure sizes", p.Abbr)
	case p.FootprintMin < 1 || p.FootprintMax > addr.BlocksPerPage || p.FootprintMin > p.FootprintMax:
		return fmt.Errorf("workloads %s: bad footprint bounds [%d,%d]", p.Abbr, p.FootprintMin, p.FootprintMax)
	case p.ColdPageRate+p.StreamRate+p.RandomRate > 1:
		return fmt.Errorf("workloads %s: episode mix exceeds 1", p.Abbr)
	case p.VisitNoise < 0 || p.VisitNoise >= 1:
		return fmt.Errorf("workloads %s: visit noise %v out of range", p.Abbr, p.VisitNoise)
	case p.ClusterFrac < 0 || p.ClusterFrac > 1:
		return fmt.Errorf("workloads %s: cluster fraction %v out of range", p.Abbr, p.ClusterFrac)
	case p.Parallelism < 1:
		return fmt.Errorf("workloads %s: parallelism must be >= 1", p.Abbr)
	case p.MeanGap <= 0:
		return fmt.Errorf("workloads %s: mean gap must be positive", p.Abbr)
	}
	return nil
}

// pageInfo is the stable behaviour of one live page.
type pageInfo struct {
	stable bitmap.Page64 // footprint visited (almost) every time
	halo   bitmap.Page64 // occasionally visited extra blocks (shared per region)
}

// region is a cluster of pages with similar footprints at strided nearby
// page numbers. Cold pages allocate members lazily; hot clusters allocate
// them up front.
type region struct {
	base   addr.PageNum
	stride int // page-number gap between members (drives Figure 5's distance axis)
	span   int // member count
	proto  bitmap.Page64
	halo   bitmap.Page64
	// order is a permutation of member indices: cold pages materialise in
	// a shuffled order so no mechanical page-number sequence appears on
	// the bus for delta prefetchers to latch onto.
	order    []int
	nextCold int
}

// strideChoices weights member spacing so that roughly half of clustered
// pages have a neighbour within distance 4 and nearly all within 64,
// reproducing the growth of Figure 5's curve.
var strideChoices = []int{1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 4, 4, 6, 8, 12, 32}

type episodeKind int

const (
	epVisit episodeKind = iota
	epStream
	epRandom
)

// episode is one in-flight access sequence (one device's activity burst).
// A finished episode's slot is refilled in place (startEpisode), and buf,
// allocated once at a page's 64 blocks, backs every visit the slot holds.
type episode struct {
	kind   episodeKind
	device trace.Device
	// visit state
	page addr.PageNum
	offs []int // remaining in-page offsets, pre-shuffled: a window of buf
	buf  []int
	// stream state
	next addr.BlockNum
	left int
	// random state
	rleft int
}

func (e *episode) done() bool {
	switch e.kind {
	case epVisit:
		return len(e.offs) == 0
	case epStream:
		return e.left == 0
	default:
		return e.rleft == 0
	}
}

// Generator produces the trace of one profile incrementally.
type Generator struct {
	p   Profile
	rng *rand.Rand

	clock    float64
	episodes []episode

	pages map[addr.PageNum]pageInfo
	// known is the FIFO of live pages (the revisit pool). Once it holds
	// HotPages+MaxPages pages it is a ring whose oldest page sits at
	// knownHead; livePage indexes it oldest first.
	known      []addr.PageNum
	knownHead  int
	regions    []region // cold-page regions (lazily filled)
	active     []int    // recently active region indices, at most maxActive
	randomBase addr.PageNum
}

// maxActive bounds Generator.active.
const maxActive = 8

// NewGenerator builds a generator; it panics on an invalid profile
// (profiles are compile-time catalog data).
func NewGenerator(p Profile) *Generator {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	g := &Generator{
		p:          p,
		rng:        rand.New(rand.NewSource(p.Seed)),
		pages:      make(map[addr.PageNum]pageInfo, p.HotPages+p.MaxPages),
		known:      make([]addr.PageNum, 0, p.HotPages+p.MaxPages),
		randomBase: addr.PageNum(1<<31) + addr.PageNum(rand.New(rand.NewSource(p.Seed^0x5eed)).Int63n(1<<20)),
	}
	// Standalone hot pages at scattered page numbers.
	standalone := int(float64(p.HotPages) * (1 - p.ClusterFrac))
	for i := 0; i < standalone; i++ {
		pn := g.randomPage()
		if _, dup := g.pages[pn]; dup {
			continue
		}
		g.addPage(pn, pageInfo{stable: g.randomFootprint(), halo: g.randomHalo()})
	}
	// Clustered hot pages: contiguous-ish strided runs sharing a
	// prototype footprint.
	for allocated := standalone; allocated < p.HotPages; {
		r := g.newRegion(nil)
		for i := 0; i < r.span && allocated < p.HotPages; i++ {
			g.addPage(r.base+addr.PageNum(i*r.stride), g.memberInfo(&r))
			allocated++
		}
	}
	// Cold-page regions, each pre-seeded with one member so transfer
	// learning has something to see early.
	for i := 0; i < p.Regions; i++ {
		g.regions = append(g.regions, g.newRegion(nil))
		g.coldPage(i)
	}
	g.episodes = make([]episode, p.Parallelism)
	for i := range g.episodes {
		g.episodes[i].buf = make([]int, 0, addr.BlocksPerPage)
		g.startEpisode(&g.episodes[i])
	}
	return g
}

func (g *Generator) randomPage() addr.PageNum {
	return addr.PageNum(g.rng.Int63n(1 << 30))
}

func (g *Generator) randomFootprint() bitmap.Page64 {
	n := g.p.FootprintMin
	if g.p.FootprintMax > g.p.FootprintMin {
		n += g.rng.Intn(g.p.FootprintMax - g.p.FootprintMin + 1)
	}
	var b bitmap.Page64
	for b.Count() < n {
		b = b.Set(g.rng.Intn(addr.BlocksPerPage))
	}
	return b
}

// randomHalo picks two occasional extra blocks.
func (g *Generator) randomHalo() bitmap.Page64 {
	return bitmap.FromOffsets(g.rng.Intn(addr.BlocksPerPage), g.rng.Intn(addr.BlocksPerPage))
}

// newRegion draws a fresh region, writing its member order into order's
// backing array when it is large enough.
func (g *Generator) newRegion(order []int) region {
	span := g.p.RegionSpanMin
	if g.p.RegionSpanMax > g.p.RegionSpanMin {
		span += g.rng.Intn(g.p.RegionSpanMax - g.p.RegionSpanMin + 1)
	}
	if span < 1 {
		span = 1
	}
	order = g.perm(order, span)
	return region{
		base:   g.randomPage(),
		stride: strideChoices[g.rng.Intn(len(strideChoices))],
		span:   span,
		proto:  g.randomFootprint(),
		halo:   g.randomHalo(),
		order:  order,
	}
}

// perm is rand.Perm(n) written into buf's backing array when it is large
// enough: the same Intn calls in the same order give the same permutation.
// A new array holds RegionSpanMax, so a region slot allocates only once.
func (g *Generator) perm(buf []int, n int) []int {
	if cap(buf) < n {
		buf = make([]int, n, max(n, g.p.RegionSpanMax))
	}
	m := buf[:n]
	for i := range m {
		j := g.rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// memberInfo derives a member page's stable footprint from the region
// prototype: RegionNoise bits flipped, halo shared (so observed footprints
// of two members differ by at most 2×RegionNoise bits).
func (g *Generator) memberInfo(r *region) pageInfo {
	fp := r.proto
	for i := 0; i < g.p.RegionNoise; i++ {
		fp = flip(fp, g.rng.Intn(addr.BlocksPerPage))
	}
	if fp.Count() == 0 {
		fp = fp.Set(g.rng.Intn(addr.BlocksPerPage))
	}
	return pageInfo{stable: fp, halo: r.halo}
}

// addPage registers a live page, retiring the oldest when over budget.
func (g *Generator) addPage(pn addr.PageNum, info pageInfo) {
	g.pages[pn] = info
	limit := g.p.HotPages + g.p.MaxPages
	if limit <= 0 || len(g.known) < limit {
		g.known = append(g.known, pn)
		return
	}
	delete(g.pages, g.known[g.knownHead])
	g.known[g.knownHead] = pn
	if g.knownHead++; g.knownHead == len(g.known) {
		g.knownHead = 0
	}
}

// livePage returns the i-th oldest live page.
func (g *Generator) livePage(i int) addr.PageNum {
	if i += g.knownHead; i >= len(g.known) {
		i -= len(g.known)
	}
	return g.known[i]
}

// coldPage allocates the next member of region ri and returns its page.
// When the region is exhausted it is replaced in place by a fresh region.
func (g *Generator) coldPage(ri int) addr.PageNum {
	r := &g.regions[ri]
	if r.nextCold >= r.span {
		*r = g.newRegion(r.order)
	}
	pn := r.base + addr.PageNum(r.order[r.nextCold]*r.stride)
	r.nextCold++
	g.addPage(pn, g.memberInfo(r))
	g.noteActive(ri)
	return pn
}

func flip(b bitmap.Page64, i int) bitmap.Page64 {
	if b.Has(i) {
		return b.Clear(i)
	}
	return b.Set(i)
}

func (g *Generator) noteActive(ri int) {
	if len(g.active) == maxActive {
		g.active = append(g.active[:0], g.active[1:]...)
	}
	g.active = append(g.active, ri)
}

func (g *Generator) pickRegion() int {
	if len(g.active) > 0 && g.rng.Float64() < g.p.RegionAffinity {
		return g.active[g.rng.Intn(len(g.active))]
	}
	ri := g.rng.Intn(len(g.regions))
	g.noteActive(ri)
	return ri
}

func (g *Generator) pickDevice() trace.Device {
	ds := g.p.Devices
	if len(ds) == 0 {
		return trace.CPU0
	}
	total := 0.0
	for _, d := range ds {
		total += d.Weight
	}
	x := g.rng.Float64() * total
	for _, d := range ds {
		x -= d.Weight
		if x <= 0 {
			return d.Device
		}
	}
	return ds[len(ds)-1].Device
}

// visitFootprint derives this visit's observed access list from the page's
// stable footprint: each stable block is visited with probability
// 1−VisitNoise, and each halo block with probability HaloRate. Order is
// shuffled (Figure 2: non-deterministic access order within a snapshot).
// The list is appended to out[:0]; blocks are drawn in ascending offset
// order, stable blocks first.
func (g *Generator) visitFootprint(info pageInfo, out []int) []int {
	out = out[:0]
	for v := uint64(info.stable); v != 0; v &= v - 1 {
		if g.rng.Float64() >= g.p.VisitNoise {
			out = append(out, bits.TrailingZeros64(v))
		}
	}
	for v := uint64(info.halo.Minus(info.stable)); v != 0; v &= v - 1 {
		if g.rng.Float64() < g.p.HaloRate {
			out = append(out, bits.TrailingZeros64(v))
		}
	}
	g.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// startEpisode fills slot e with a new episode, keeping its offset buffer.
func (g *Generator) startEpisode(e *episode) {
	*e = episode{device: g.pickDevice(), buf: e.buf}
	// Convert record shares to episode probabilities by dividing by each
	// kind's expected length, so the rates hold at the request level.
	visitLen := float64(g.p.FootprintMin+g.p.FootprintMax) / 2 * (1 - g.p.VisitNoise)
	if visitLen < 1 {
		visitLen = 1
	}
	const streamLen, randomLen = 80.0, 9.5
	wCold := g.p.ColdPageRate / visitLen
	wStream := g.p.StreamRate / streamLen
	wRandom := g.p.RandomRate / randomLen
	wRevisit := (1 - g.p.ColdPageRate - g.p.StreamRate - g.p.RandomRate) / visitLen
	x := g.rng.Float64() * (wCold + wStream + wRandom + wRevisit)
	switch {
	case len(g.regions) > 0 && x < wCold:
		e.kind = epVisit
		e.page = g.coldPage(g.pickRegion())
		e.offs = g.visitFootprint(g.pages[e.page], e.buf)
	case x < wCold+wStream:
		e.kind = epStream
		e.next = addr.Addr(g.rng.Int63n(1 << 42)).Block()
		e.left = 32 + g.rng.Intn(96)
	case x < wCold+wStream+wRandom:
		e.kind = epRandom
		e.rleft = 4 + g.rng.Intn(12)
	default:
		e.kind = epVisit
		e.page = g.revisitPage()
		e.offs = g.visitFootprint(g.pages[e.page], e.buf)
	}
	if e.done() {
		// Degenerate episode (e.g. fully skipped footprint): fall back
		// to one random access so the generator always makes progress.
		e.kind = epRandom
		e.rleft = 1
	}
}

// revisitPage picks a live page, preferring members of recently active
// regions (asset clusters used together) under the affinity bias.
func (g *Generator) revisitPage() addr.PageNum {
	if len(g.active) > 0 && g.rng.Float64() < g.p.RegionAffinity {
		r := g.regions[g.active[g.rng.Intn(len(g.active))]]
		if r.nextCold > 0 {
			pn := r.base + addr.PageNum(r.order[g.rng.Intn(r.nextCold)]*r.stride)
			if _, ok := g.pages[pn]; ok {
				return pn
			}
		}
	}
	if len(g.known) == 0 {
		pn := g.randomPage()
		g.addPage(pn, pageInfo{stable: g.randomFootprint(), halo: g.randomHalo()})
		return pn
	}
	if w := g.p.RecentWindow; w > 0 && g.rng.Float64() < g.p.HotSkew {
		if w > len(g.known) {
			w = len(g.known)
		}
		return g.livePage(len(g.known) - 1 - g.rng.Intn(w))
	}
	return g.livePage(g.rng.Intn(len(g.known)))
}

// randomBlock picks a block in the bounded random ("heap churn") area. The
// area holds RandomPages pages spaced 128 page numbers apart, so heap-churn
// pages are never within the Figure 5 distance window of each other and
// exhibit no stable snapshots.
func (g *Generator) randomBlock() addr.BlockNum {
	pages := g.p.RandomPages
	if pages <= 0 {
		pages = 4096
	}
	pn := g.randomBase + addr.PageNum(g.rng.Intn(pages)*128)
	return pn.Block(g.rng.Intn(addr.BlocksPerPage))
}

// Next produces the next trace record.
func (g *Generator) Next() trace.Record {
	e := &g.episodes[g.rng.Intn(len(g.episodes))]
	dev := e.device // startEpisode below refills the slot

	var a addr.Addr
	switch e.kind {
	case epVisit:
		off := e.offs[0]
		e.offs = e.offs[1:]
		a = e.page.Block(off).Addr()
	case epStream:
		a = e.next.Addr()
		e.next++
		e.left--
	default:
		a = g.randomBlock().Addr()
		e.rleft--
	}
	if e.done() {
		g.startEpisode(e)
	}

	g.clock += g.rng.ExpFloat64() * g.p.MeanGap
	return trace.Record{
		Addr:   a,
		Cycle:  uint64(g.clock),
		Device: dev,
		Write:  g.rng.Float64() < g.p.WriteFraction,
	}
}

// Generate produces a trace of n records.
func (g *Generator) Generate(n int) trace.Trace {
	t := make(trace.Trace, n)
	for i := range t {
		t[i] = g.Next()
	}
	return t
}

// Generate is a convenience: a fresh generator's first n records.
func (p Profile) Generate(n int) trace.Trace {
	return NewGenerator(p).Generate(n)
}

// TraceStream streams a generator's records through the trace.Stream
// interface: synthetic traces feed the engine record-at-a-time in O(1)
// memory, so run length is bounded by throughput, not RAM. Generation is
// deterministic per profile seed, so streaming the same profile twice (or
// streaming after materialising with Generate) yields identical records.
type TraceStream struct {
	g    *Generator
	left int
}

// Stream returns a trace.Stream over the generator's next n records.
func (g *Generator) Stream(n int) *TraceStream {
	if n < 0 {
		n = 0
	}
	return &TraceStream{g: g, left: n}
}

// Stream returns a trace.Stream over a fresh generator's first n records.
func (p Profile) Stream(n int) *TraceStream {
	return NewGenerator(p).Stream(n)
}

// Next implements trace.Stream.
func (s *TraceStream) Next() (trace.Record, bool) {
	if s.left <= 0 {
		return trace.Record{}, false
	}
	s.left--
	return s.g.Next(), true
}

// NextChunk implements trace.Chunker.
func (s *TraceStream) NextChunk(dst []trace.Record) int {
	n := len(dst)
	if n > s.left {
		n = s.left
	}
	for i := 0; i < n; i++ {
		dst[i] = s.g.Next()
	}
	s.left -= n
	return n
}

// Err implements trace.Stream; generation cannot fail.
func (s *TraceStream) Err() error { return nil }

// Len implements trace.Sized: records remaining.
func (s *TraceStream) Len() int { return s.left }
