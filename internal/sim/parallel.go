package sim

// This file is the engine's one stream driver. The paper's system is four
// independent SC slices, one per LPDDR4 channel, and every trace record
// touches exactly one channel's cache, prefetcher, queue and DRAM
// controller. A splitter on the calling goroutine reads the stream a chunk
// at a time and appends each record to its channel's parcel; a full parcel
// is stepped as one batch through stepAll. Config.ParallelChannels chooses
// where: on the channel's own worker goroutine, or inline on the calling
// goroutine. Inline, each channel keeps one parcel. The channel workers
// share one budget of parcels (parcelBudget): a channel takes a parcel from
// the shared free list when its first record arrives, hands it to its
// worker when it is full, and the worker returns it once stepped. So a run
// holds at most the budget's parcels, whatever the trace length and however
// the records fall across channels.
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
// its queue, returning every parcel it steps or discards to the free list.
// Each queue has room for the whole budget plus one barrier, so a send
// never blocks; the splitter waits only for a free parcel, which a running
// worker always returns, and barriers always complete. The first failure
// trips a shared abort latch; the splitter stops reading the stream at the
// next chunk boundary, flushes what it already read (so an even earlier
// fault buffered for another channel is still discovered), closes the
// queues and joins every worker. The run's error is attributed to the
// earliest failing global record, exactly as a Step loop would stop.

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/trace"
)

// parcelBuf is one per-channel batch: up to a chunk of records plus their
// global trace positions (used to attribute an error to the earliest
// failing record, as a Step loop would), 128 KiB in all.
type parcelBuf struct {
	recs []trace.Record
	idx  []int64
}

func newParcelBuf() *parcelBuf {
	return &parcelBuf{
		recs: make([]trace.Record, 0, trace.ChunkSize),
		idx:  make([]int64, 0, trace.ChunkSize),
	}
}

// parcelBudget is how many parcels the channel workers of a run share: one
// per unit being built, plus, for each worker that can run at once, the
// parcel it steps and the next one queued behind it. That is 8 parcels
// (1 MiB) at GOMAXPROCS 2 and 12 (1.5 MiB) from GOMAXPROCS 4 up.
func parcelBudget(units int) int {
	return units + 2*min(units, runtime.GOMAXPROCS(0))
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
	// stepParcel steps one parcel on unit u and empties it. Once the unit
	// has failed it discards parcels instead of stepping them.
	stepParcel := func(u int, b *parcelBuf) {
		if errs[u].err == nil {
			if at, err := e.units[u].stepAll(b); err != nil {
				errs[u] = chanErr{err: err, global: at}
				trip.Do(func() { close(abort) })
			} else if c := e.runRecords; c != nil {
				// Progress and the unit's counters are published at parcel
				// granularity — a few atomic adds per batch keep -progress
				// and -debug-addr nearly free — and additively, so
				// sequential engines sharing one registry accumulate
				// instead of rewinding.
				c.Add(uint64(len(b.recs)))
				e.units[u].publish()
			}
		}
		b.recs = b.recs[:0]
		b.idx = b.idx[:0]
	}

	// queues and free are nil in the inline mode, where flush steps a full
	// parcel on the calling goroutine instead of queueing it. With channel
	// workers, free holds the parcels no channel is building or stepping.
	var (
		queues  []chan parcel
		free    chan *parcelBuf
		workers sync.WaitGroup
	)
	if e.cfg.ParallelChannels {
		budget := parcelBudget(numUnits)
		free = make(chan *parcelBuf, budget)
		queues = make([]chan parcel, numUnits)
		for u := 0; u < numUnits; u++ {
			// Room for every parcel plus the one barrier a queue can hold
			// (quiesce waits for each barrier to be taken), so a send
			// never blocks.
			queues[u] = make(chan parcel, budget+1)
			workers.Add(1)
			go func(u int) {
				defer workers.Done()
				// The loop always runs to queue close: after a failure the
				// worker keeps draining parcels (stepParcel discards them),
				// returns each to the free list and keeps honouring
				// barriers, so the splitter never waits on a parcel that
				// will not come back and quiesce never deadlocks.
				for p := range queues[u] {
					if p.barrier != nil {
						p.barrier.arrived.Done()
						<-p.barrier.resume
						continue
					}
					stepParcel(u, p.buf)
					free <- p.buf
				}
			}(u)
		}
	}

	// bufs[u] is the parcel unit u is building, nil until its next record.
	// acquire gives a unit without one a parcel. Inline, a unit allocates
	// its one parcel on first use and keeps it. With channel workers,
	// acquire takes one from the free list, allocates one while fewer than
	// the budget exist, and otherwise waits for a worker to return one. The
	// splitter acquires only between quiesces, when no worker is parked at
	// a barrier, and at most numUnits−1 parcels are being built, so every
	// other parcel is free, queued or being stepped, and comes back.
	// Only the splitter receives from free, so a non-empty free list never
	// blocks it.
	bufs := make([]*parcelBuf, numUnits)
	made := 0
	acquire := func() *parcelBuf {
		if free != nil && (len(free) > 0 || made == cap(free)) {
			return <-free
		}
		made++
		return newParcelBuf()
	}
	flush := func(u int) {
		switch b := bufs[u]; {
		case b == nil || len(b.recs) == 0:
		case queues == nil:
			stepParcel(u, b)
		default:
			queues[u] <- parcel{buf: b}
			bufs[u] = nil
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
			if b == nil {
				b = acquire()
				bufs[u] = b
			}
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
	// discard their parcels, the worker backlog is bounded by the budget,
	// and a fault at an earlier global position that was still buffered
	// for a healthy channel is discovered this way, keeping attribution at
	// the earliest failing record.
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
