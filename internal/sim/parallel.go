package sim

// This file implements the sharded parallel execution mode: the paper's
// system is four independent SC slices, one per LPDDR4 channel, and every
// trace record touches exactly one channel's cache, prefetcher, queue and
// DRAM controller. The engine therefore runs one goroutine per channel and
// feeds each its records through a bounded queue of chunks, fanned out by a
// streaming splitter as the records arrive — no materialized per-channel
// slices, so a parallel run needs O(chunk) memory per channel regardless of
// trace length.
//
// Determinism contract (see docs/PERFORMANCE.md): per-channel state after
// processing a channel's records up to global trace position i is identical
// to the serial engine's state at position i, because channels share
// nothing. The only cross-channel coupling is the metrics sampler, whose
// window boundaries depend on the global record stream — the splitter sees
// that global order, so it counts records and asks metrics.Sampler.Due at
// each one, exactly as the serial Step does, and all channels barrier at
// each boundary before the merged snapshot is taken. Reports are
// bit-identical to serial runs.
//
// Failure contract (docs/PERFORMANCE.md, "Failure model"): a worker that
// errors — or panics; panics are recovered into errors — never stops
// draining its queue, so the splitter can never block pushing into a dead
// worker's bounded queue and barriers always complete. The first failure
// trips a shared abort latch; the splitter stops reading the stream at the
// next chunk boundary, flushes what it already read (so an even earlier
// fault buffered for another channel is still discovered), closes the
// queues and joins every worker. The run's error is attributed to the
// earliest failing global record, exactly as the serial engine would stop.

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/trace"
)

// parcelQueueDepth bounds each channel's queue of in-flight chunks. With
// the building buffer and the chunk a worker is processing, a channel holds
// at most parcelQueueDepth+2 chunks at once — the memory bound of the
// parallel pipeline (≈ 6 × 96 KB per channel).
const parcelQueueDepth = 4

// parcelBuf is one recycled per-channel chunk: the records plus their
// global trace positions (used to attribute an error to the earliest
// failing record, as the serial engine would).
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

// parcel is one message on a channel worker's queue: either a chunk of
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

// runParallelStream drives a record stream through the sharded engine.
// warmAt >= 0 resets statistics immediately before global record warmAt
// (the warmup boundary); warmAt < 0 disables the reset. Without sampling
// and warmup there are no barriers at all: the four channels run free from
// start to finish behind the splitter. The returned position attributes any
// error (see consumeStream).
func (e *Engine) runParallelStream(ctx context.Context, s trace.Stream, warmAt int64) (int64, error) {
	type chanErr struct {
		err    error
		global int64
	}
	numUnits := len(e.units)
	var (
		queues  = make([]chan parcel, numUnits)
		errs    = make([]chanErr, numUnits) // each worker writes only its slot
		workers sync.WaitGroup
		abort   = make(chan struct{}) // closed once, on the first worker failure
		trip    sync.Once
	)
	pool := sync.Pool{New: func() any {
		return &parcelBuf{
			recs: make([]trace.Record, 0, trace.ChunkSize),
			idx:  make([]int64, 0, trace.ChunkSize),
		}
	}}
	for u := 0; u < numUnits; u++ {
		queues[u] = make(chan parcel, parcelQueueDepth)
		workers.Add(1)
		go func(u int) {
			defer workers.Done()
			cs := e.units[u]
			failed := false
			// The loop always runs to queue close: after a failure the
			// worker keeps draining chunks (discarding them) and keeps
			// honouring barriers, so the splitter never blocks pushing
			// into this queue and quiesce never deadlocks.
			for p := range queues[u] {
				if p.barrier != nil {
					p.barrier.arrived.Done()
					<-p.barrier.resume
					continue
				}
				if !failed {
					if at, err := cs.stepAll(p.buf); err != nil {
						errs[u] = chanErr{err: err, global: at}
						failed = true
						trip.Do(func() { close(abort) })
					} else if c := e.runRecords; c != nil {
						// Chunk-granularity additive progress, like the
						// serial consumer.
						c.Add(uint64(len(p.buf.recs)))
					}
				}
				p.buf.recs = p.buf.recs[:0]
				p.buf.idx = p.buf.idx[:0]
				pool.Put(p.buf)
			}
		}(u)
	}

	bufs := make([]*parcelBuf, numUnits)
	for u := range bufs {
		bufs[u] = pool.Get().(*parcelBuf)
	}
	flush := func(u int) {
		if len(bufs[u].recs) == 0 {
			return
		}
		queues[u] <- parcel{buf: bufs[u]}
		bufs[u] = pool.Get().(*parcelBuf)
	}
	// quiesce flushes every channel and parks all workers at a barrier;
	// the returned function releases them. Between the two calls the
	// splitter may read and mutate engine state freely: WaitGroup arrival
	// orders every prior step before the snapshot, and resume orders the
	// snapshot before every later step.
	quiesce := func() func() {
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
	var cause error // cancellation, recorded at the splitter's position
splitting:
	for {
		select {
		case <-abort:
			// A worker failed; stop feeding the stream. The failing
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
	// Flush everything already read — even when aborting. Workers keep
	// draining after a failure, the backlog is bounded by the queue depth,
	// and a fault at an earlier global position that was still buffered
	// for a healthy channel is discovered this way, keeping attribution at
	// the earliest failing record.
	for u := 0; u < numUnits; u++ {
		flush(u)
		close(queues[u])
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
