package sim

// This file is the engine's one stream driver. The paper's system is four
// independent SC slices, one per LPDDR4 channel, and every trace record
// touches exactly one channel's cache, prefetcher, queue and DRAM
// controller. A splitter on the calling goroutine reads the stream a chunk
// at a time and appends each record to its channel's parcel; a full parcel
// is stepped as one batch through stepAll. Config.ParallelChannels chooses
// where: on the channel's own worker goroutine, fed through a bounded queue
// of parcels, or inline on the calling goroutine. Either way a run needs
// O(chunk) memory per channel regardless of trace length.
//
// Determinism contract (see docs/PERFORMANCE.md): per-channel state after
// processing a channel's records up to global trace position i is identical
// to Step's state at position i, because channels share nothing. The only
// cross-channel coupling is the metrics sampler, whose window boundaries
// depend on the global record stream — the splitter sees that global order,
// so it counts records and asks metrics.Sampler.Due at each one, exactly as
// Step does, and every channel is quiesced at each boundary before the
// merged snapshot is taken. Reports are bit-identical to a Step loop.
//
// Failure contract (docs/PERFORMANCE.md, "Failure model"): a unit that
// errors — or panics; panics are recovered into errors — discards every
// later parcel instead of stepping it, and a worker never stops draining
// its queue, so the splitter can never block pushing into a dead worker's
// bounded queue and barriers always complete. The first failure trips a
// shared abort latch; the splitter stops reading the stream at the next
// chunk boundary, flushes what it already read (so an even earlier fault
// buffered for another channel is still discovered), closes the queues and
// joins every worker. The run's error is attributed to the earliest failing
// global record, exactly as a Step loop would stop.

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/trace"
)

// parcelQueueDepth bounds each channel's queue of in-flight parcels. With
// the building parcel and the one a worker is stepping, a channel holds at
// most parcelQueueDepth+2 parcels at once — the memory bound of the worker
// mode (6 × 128 KiB per channel). The inline mode holds one per channel.
const parcelQueueDepth = 4

// parcelBuf is one recycled per-channel batch: the records plus their
// global trace positions (used to attribute an error to the earliest
// failing record, as a Step loop would).
type parcelBuf struct {
	recs []trace.Record
	idx  []int64
}

// streamBarrier synchronises all channel workers with the splitter at a
// sampler window (or warmup) boundary: workers signal arrival and park
// until the splitter has taken its merged snapshot and closes resume.
type streamBarrier struct {
	arrived sync.WaitGroup
	resume  chan struct{}
}

// parcel is one message on a channel worker's queue: either a batch of
// records or a barrier.
type parcel struct {
	buf     *parcelBuf
	barrier *streamBarrier
}

// stepAll drives every record of b through the channel slice. A step error
// — or a panic out of the channel's cache, prefetcher or controller, which
// is recovered here so one poisoned component cannot wedge the whole
// pipeline — is attributed to the global position of the record being
// processed.
func (cs *channelState) stepAll(b *parcelBuf) (at int64, err error) {
	k := 0
	defer func() {
		if r := recover(); r != nil {
			at = b.idx[k]
			err = fmt.Errorf("sim: channel worker panic at record %d: %v", at, r)
		}
	}()
	for k = range b.recs {
		if e := cs.step(b.recs[k]); e != nil {
			return b.idx[k], e
		}
	}
	return 0, nil
}

// runParallelStream drives every record of s through the engine, resetting
// statistics immediately before global record warmAt (warmAt < 0 disables
// the reset; warmAt at or past the end of the stream resets after the last
// record, so a warmup boundary past the last record still discards the
// whole run). Without sampling and warmup there are no barriers at all:
// the channels run free from start to finish behind the splitter.
// Cancellation is observed at chunk boundaries. The returned position is
// where any error is attributed: the earliest failing record for
// simulation errors, the refused record for an out-of-order cycle, the
// records delivered for stream faults, the stop position for cancellation.
// It is meaningless when err is nil.
func (e *Engine) runParallelStream(ctx context.Context, s trace.Stream, warmAt int64) (int64, error) {
	type chanErr struct {
		err    error
		global int64
	}
	numUnits := len(e.units)
	var (
		errs  = make([]chanErr, numUnits) // slot u is written only by whoever steps unit u
		abort = make(chan struct{})       // closed once, on the first unit failure
		trip  sync.Once
	)
	pool := sync.Pool{New: func() any {
		return &parcelBuf{
			recs: make([]trace.Record, 0, trace.ChunkSize),
			idx:  make([]int64, 0, trace.ChunkSize),
		}
	}}
	// stepParcel steps one parcel on unit u and empties it. Once the unit
	// has failed it discards parcels instead of stepping them.
	stepParcel := func(u int, b *parcelBuf) {
		if errs[u].err == nil {
			if at, err := e.units[u].stepAll(b); err != nil {
				errs[u] = chanErr{err: err, global: at}
				trip.Do(func() { close(abort) })
			} else if c := e.runRecords; c != nil {
				// Progress is published at parcel granularity — one atomic
				// add per batch keeps -progress and -debug-addr nearly free
				// — and additively, so sequential engines sharing one
				// registry accumulate instead of rewinding.
				c.Add(uint64(len(b.recs)))
			}
		}
		b.recs = b.recs[:0]
		b.idx = b.idx[:0]
	}

	// queues is nil in the inline mode, where flush steps a full parcel on
	// the calling goroutine instead of queueing it.
	var (
		queues  []chan parcel
		workers sync.WaitGroup
	)
	if e.cfg.ParallelChannels {
		queues = make([]chan parcel, numUnits)
		for u := 0; u < numUnits; u++ {
			queues[u] = make(chan parcel, parcelQueueDepth)
			workers.Add(1)
			go func(u int) {
				defer workers.Done()
				// The loop always runs to queue close: after a failure the
				// worker keeps draining parcels (stepParcel discards them)
				// and keeps honouring barriers, so the splitter never
				// blocks pushing into this queue and quiesce never
				// deadlocks.
				for p := range queues[u] {
					if p.barrier != nil {
						p.barrier.arrived.Done()
						<-p.barrier.resume
						continue
					}
					stepParcel(u, p.buf)
					pool.Put(p.buf)
				}
			}(u)
		}
	}

	bufs := make([]*parcelBuf, numUnits)
	for u := range bufs {
		bufs[u] = pool.Get().(*parcelBuf)
	}
	flush := func(u int) {
		switch {
		case len(bufs[u].recs) == 0:
		case queues == nil:
			stepParcel(u, bufs[u])
		default:
			queues[u] <- parcel{buf: bufs[u]}
			bufs[u] = pool.Get().(*parcelBuf)
		}
	}
	// quiesce steps every record read so far; the returned function lets
	// the channels go on. Between the two calls the splitter may read and
	// mutate engine state freely. In the worker mode every worker parks at
	// a barrier: WaitGroup arrival orders every prior step before the
	// snapshot, and resume orders the snapshot before every later step.
	quiesce := func() func() {
		if queues == nil {
			for u := 0; u < numUnits; u++ {
				flush(u)
			}
			return func() {}
		}
		b := &streamBarrier{resume: make(chan struct{})}
		b.arrived.Add(numUnits)
		for u := 0; u < numUnits; u++ {
			flush(u)
			queues[u] <- parcel{barrier: b}
		}
		b.arrived.Wait()
		return func() { close(b.resume) }
	}

	in := make([]trace.Record, trace.ChunkSize)
	var global int64
	var cause error // cancellation or a refused record, at the splitter's position
splitting:
	for {
		select {
		case <-abort:
			// A unit failed; stop feeding the stream. The failing
			// record's position is in errs — attribution happens below.
			break splitting
		case <-ctx.Done():
			cause = ctx.Err()
			break splitting
		default:
		}
		n := trace.ReadChunk(s, in)
		if n == 0 {
			break
		}
		for _, rec := range in[:n] {
			if global == warmAt {
				resume := quiesce()
				e.ResetStats()
				resume()
			}
			if cause = e.admit(rec.Cycle); cause != nil {
				// Every record before this one was handed out, so a unit
				// failure, if any, is earlier and wins below.
				break splitting
			}
			u := rec.Block().Channel()
			b := bufs[u]
			b.recs = append(b.recs, rec)
			b.idx = append(b.idx, global)
			if len(b.recs) == trace.ChunkSize {
				flush(u)
			}
			global++
			if e.sampler != nil {
				e.requests++
				if e.sampler.Due(e.requests, rec.Cycle) {
					resume := quiesce()
					e.sampler.Record(e.snapshot(rec.Cycle))
					resume()
				}
			}
		}
	}
	if cause == nil && warmAt >= global {
		// The whole (possibly empty) stream was warmup: the in-loop
		// boundary never fired, but warmup semantics still reset.
		resume := quiesce()
		e.ResetStats()
		resume()
	}
	// Flush everything already read — even when aborting. Failed units
	// discard their parcels, the worker backlog is bounded by the queue
	// depth, and a fault at an earlier global position that was still
	// buffered for a healthy channel is discovered this way, keeping
	// attribution at the earliest failing record.
	for u := 0; u < numUnits; u++ {
		flush(u)
		if queues != nil {
			close(queues[u])
		}
	}
	workers.Wait()
	first := -1
	for ch := range errs {
		if errs[ch].err != nil && (first < 0 || errs[ch].global < errs[first].global) {
			first = ch
		}
	}
	if first >= 0 {
		return errs[first].global, errs[first].err
	}
	if cause != nil {
		return global, cause
	}
	return global, s.Err()
}
