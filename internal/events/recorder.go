package events

// ChannelSink is one channel's event sink: a ring buffer (optional) plus
// channel-local attribution counters. Emit is called by exactly one
// goroutine (the channel's worker); the attribution side uses atomics so
// concurrent readers (the debug endpoint) stay race-free.
type ChannelSink struct {
	ring    *Ring // nil when the recorder runs attribution-only
	at      attrib
	channel int
}

// Emit implements Sink.
func (s *ChannelSink) Emit(ev Event) {
	if s.ring != nil {
		s.ring.push(ev)
	}
	s.at.apply(ev)
}

// Channel returns the channel index this sink serves.
func (s *ChannelSink) Channel() int { return s.channel }

// Ring returns the channel's ring buffer, nil in attribution-only mode.
func (s *ChannelSink) Ring() *Ring { return s.ring }

// Recorder owns the per-channel sinks of one engine run. Construction is
// cheap; the per-channel rings are the only sizeable allocation
// (RingSize × 48 B each).
type Recorder struct {
	sinks []*ChannelSink
}

// NewRecorder builds a recorder with one sink per channel. ringSize ≤ 0
// disables the rings (attribution-only mode).
func NewRecorder(channels, ringSize int) *Recorder {
	r := &Recorder{sinks: make([]*ChannelSink, channels)}
	for ch := range r.sinks {
		s := &ChannelSink{channel: ch}
		if ringSize > 0 {
			s.ring = NewRing(ringSize)
		}
		r.sinks[ch] = s
	}
	return r
}

// Channels returns the number of per-channel sinks.
func (r *Recorder) Channels() int { return len(r.sinks) }

// Channel returns the sink for one channel.
func (r *Recorder) Channel(ch int) *ChannelSink { return r.sinks[ch] }

// HasRings reports whether event rings were enabled.
func (r *Recorder) HasRings() bool {
	return len(r.sinks) > 0 && r.sinks[0].ring != nil
}

// Dropped returns the total ring overwrites across channels. Safe to call
// live.
func (r *Recorder) Dropped() uint64 {
	var n uint64
	for _, s := range r.sinks {
		if s.ring != nil {
			n += s.ring.Dropped()
		}
	}
	return n
}

// ResetAttrib zeroes the attribution counters on every channel, leaving the
// event rings intact. The engine calls it at the warmup boundary so
// event-level attribution covers the same measured region as the aggregate
// report.
func (r *Recorder) ResetAttrib() {
	for _, s := range r.sinks {
		s.at.reset()
	}
}

// Attrib sums the channel-local attribution tables into one snapshot. Safe
// to call while the run is still in progress.
func (r *Recorder) Attrib() *AttribSnapshot {
	snap := &AttribSnapshot{PageBuckets: PageBuckets}
	var cells [NumOrigins][PageBuckets]BucketAttrib
	var suppress [numReasons]uint64
	for _, s := range r.sinks {
		a := &s.at
		snap.Demand += a.demand.Load()
		snap.SLPPromotions += a.slpPromotes.Load()
		snap.SLPSnapshots += a.slpSnapshots.Load()
		snap.TLPNeighborMatches += a.tlpNeighbors.Load()
		for rsn := range a.suppress {
			suppress[rsn] += a.suppress[rsn].Load()
		}
		for o := range a.cells {
			for b := range a.cells[o] {
				c := &a.cells[o][b]
				dst := &cells[o][b]
				dst.Issued += c.issued.Load()
				dst.Filled += c.filled.Load()
				dst.Used += c.used.Load()
				dst.Late += c.late.Load()
				dst.EvictedUnused += c.evicted.Load()
			}
		}
	}
	for o := range cells {
		row := OriginAttrib{Origin: Origin(o).String()}
		for b := range cells[o] {
			c := cells[o][b]
			row.Issued += c.Issued
			row.Filled += c.Filled
			row.Used += c.Used
			row.Late += c.Late
			row.EvictedUnused += c.EvictedUnused
			if c.Issued|c.Filled|c.Used|c.Late|c.EvictedUnused != 0 {
				c.Bucket = b
				row.Buckets = append(row.Buckets, c)
			}
		}
		if row.Issued|row.Filled|row.Used|row.Late|row.EvictedUnused != 0 {
			snap.Origins = append(snap.Origins, row)
		}
	}
	for rsn := 1; rsn < len(suppress); rsn++ { // ReasonNone is not a decision
		if suppress[rsn] != 0 {
			if snap.Suppression == nil {
				snap.Suppression = make(map[string]uint64)
			}
			snap.Suppression[Reason(rsn).String()] = suppress[rsn]
		}
	}
	snap.DroppedEvents = r.Dropped()
	return snap
}
