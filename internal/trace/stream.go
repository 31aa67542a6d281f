package trace

import (
	"errors"
	"fmt"
	"io"
)

// This file defines the streaming side of the trace package: a pull-based
// record iterator that lets the simulation engine consume traces of any
// length in O(chunk) memory. The paper's own methodology is stream-shaped —
// bus-monitor records are fed one at a time into a modified DRAMSim2 — and
// the same property is what lets billion-access runs fit in bounded memory
// here (see docs/PERFORMANCE.md, "Streaming pipeline").
//
// Producers implement Stream (and usually the optional Chunker fast path);
// consumers pull records through ReadChunk so the per-record interface-call
// overhead is amortised over ChunkSize records.

// ChunkSize is the batch granularity of the streaming pipeline: consumers
// pull records in chunks of this many at a time (ReadChunk), and the
// parallel engine's splitter hands per-channel chunks of this capacity to
// the channel goroutines. 4096 records is 96 KB — large enough to amortise
// per-chunk costs to noise, small enough that the splitter's shared budget
// of per-channel chunks stays within 1.5 MiB.
const ChunkSize = 4096

// Stream is a pull-based record source. Implementations are not safe for
// concurrent use; the engine pulls from exactly one goroutine.
type Stream interface {
	// Next returns the next record; ok is false when the stream is
	// exhausted (or failed — check Err).
	Next() (rec Record, ok bool)
	// Err returns the error that terminated the stream, if any. It is
	// meaningful only after Next has returned ok == false; infallible
	// sources (slices, generators) always return nil.
	Err() error
}

// Sized is optionally implemented by streams that know how many records
// remain. A negative count means unknown (streams may embed a Len method
// unconditionally and report -1 until told their length). Engine warmup
// fractions need a sized stream.
type Sized interface {
	// Len returns the number of records remaining, or a negative value
	// when the count is unknown.
	Len() int
}

// Chunker is the optional batch fast path of a Stream: NextChunk fills dst
// with up to len(dst) records and returns how many were filled (zero at end
// of stream). ReadChunk prefers it over per-record Next calls.
type Chunker interface {
	NextChunk(dst []Record) int
}

// ReadChunk fills dst from s and returns the number of records delivered,
// zero at end of stream. It uses the Chunker fast path when s provides one.
func ReadChunk(s Stream, dst []Record) int {
	if c, ok := s.(Chunker); ok {
		return c.NextChunk(dst)
	}
	for i := range dst {
		rec, ok := s.Next()
		if !ok {
			return i
		}
		dst[i] = rec
	}
	return len(dst)
}

// StreamLen returns the remaining record count of s, or -1 when s is not
// Sized (or does not know its length).
func StreamLen(s Stream) int {
	if sz, ok := s.(Sized); ok {
		if n := sz.Len(); n >= 0 {
			return n
		}
	}
	return -1
}

// SliceStream adapts an in-memory Trace to the Stream interface without
// copying the backing array. It is how an in-memory trace runs through the
// engine's single stream entry point (sim.Engine.Run).
type SliceStream struct {
	t   Trace
	pos int
}

// Stream returns a stream over the trace's records.
func (t Trace) Stream() *SliceStream { return &SliceStream{t: t} }

// Next implements Stream.
func (s *SliceStream) Next() (Record, bool) {
	if s.pos >= len(s.t) {
		return Record{}, false
	}
	rec := s.t[s.pos]
	s.pos++
	return rec, true
}

// NextChunk implements Chunker.
func (s *SliceStream) NextChunk(dst []Record) int {
	n := copy(dst, s.t[s.pos:])
	s.pos += n
	return n
}

// Err implements Stream; slice streams cannot fail.
func (s *SliceStream) Err() error { return nil }

// Len implements Sized.
func (s *SliceStream) Len() int { return len(s.t) - s.pos }

// ReaderStream adapts a binary trace Reader to the Stream interface:
// streaming file replay without ReadAll's whole-trace materialisation. The
// record count is unknown (Len returns -1) unless declared with WithLen;
// File.Stream declares it from the file size.
type ReaderStream struct {
	r        *Reader
	buf      []byte // NextChunk's read buffer, ChunkSize records long once allocated
	err      error
	done     bool
	remain   int
	declared int
	sized    bool
}

// Stream returns a record stream over the reader.
func (r *Reader) Stream() *ReaderStream { return &ReaderStream{r: r} }

// ErrLenMismatch reports a declared stream length (WithLen) that disagrees
// with the records the source actually decoded. Consumers that place a
// warmup boundary from Len would otherwise mis-place it silently.
var ErrLenMismatch = errors.New("trace: declared stream length mismatch")

// WithLen declares the total number of records the stream will deliver,
// making it Sized (warmup fractions need this). The declaration is
// enforced: a source that ends early, or keeps decoding past the declared
// count, stops the stream with an ErrLenMismatch from Err() instead of
// letting a mis-sized warmup boundary slip through. A negative n declares
// nothing (RecordCount's -1 for a file size that fits no whole trace), and
// the stream stays unsized. It returns the stream for chaining.
func (s *ReaderStream) WithLen(n int) *ReaderStream {
	if n >= 0 {
		s.remain, s.declared, s.sized = n, n, true
	}
	return s
}

// Next implements Stream: a one-record NextChunk.
func (s *ReaderStream) Next() (Record, bool) {
	var one [1]Record
	if s.NextChunk(one[:]) == 0 {
		return Record{}, false
	}
	return one[0], true
}

// NextChunk implements Chunker. It reads the bytes of up to ChunkSize
// records per io.ReadFull into a buffer kept on the stream and decodes them
// with decodeBatch. io.EOF between records is a clean end unless the
// declared length has not been reached; a read that stops part-way through
// a record is a truncation. A sized stream reads at most one record past
// its declaration, to tell an exact end from an overrun, and drops that
// record. Once the stream has stopped — end of trace, decode error, or
// length mismatch — it stays stopped: the underlying reader is never
// touched again, so a transient-looking source error cannot cause a
// partial re-read.
func (s *ReaderStream) NextChunk(dst []Record) int {
	filled := 0
	var err error
	for filled < len(dst) && !s.done && err == nil {
		if err = s.r.readHeader(); err != nil {
			break
		}
		want := min(len(dst)-filled, ChunkSize)
		if s.sized && want > s.remain {
			want = s.remain + 1
		}
		if s.buf == nil {
			s.buf = make([]byte, ChunkSize*recordBytes)
		}
		var got int
		got, err = io.ReadFull(s.r.r, s.buf[:want*recordBytes])
		k := got / recordBytes
		switch {
		case s.sized && k > s.remain:
			k = s.remain
			err = fmt.Errorf("%w: source holds more than the declared %d records",
				ErrLenMismatch, s.declared)
		case err == io.ErrUnexpectedEOF && got%recordBytes == 0:
			err = io.EOF // the short read ended between records
		case err == io.ErrUnexpectedEOF:
			err = errTruncated
		}
		decodeBatch(dst[filled:filled+k], s.buf)
		filled += k
		if s.sized {
			s.remain -= k
		}
	}
	if err != nil {
		s.done = true
		switch {
		case err != io.EOF:
			s.err = err
		case s.sized && s.remain > 0:
			s.err = fmt.Errorf("%w: stream ended %d records short of the declared %d",
				ErrLenMismatch, s.remain, s.declared)
		}
	}
	return filled
}

// Err implements Stream: the first decode error, or nil on clean EOF.
func (s *ReaderStream) Err() error { return s.err }

// Len implements Sized: records remaining when declared via WithLen, else -1.
func (s *ReaderStream) Len() int {
	if !s.sized {
		return -1
	}
	return s.remain
}

// RecordCount returns the number of records in a binary trace file of the
// given size, or -1 when the size cannot be a whole header plus whole
// records (Open rejects such a file).
func RecordCount(fileSize int64) int {
	if fileSize < headerBytes || (fileSize-headerBytes)%recordBytes != 0 {
		return -1
	}
	return int((fileSize - headerBytes) / recordBytes)
}
