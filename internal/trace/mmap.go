package trace

import (
	"encoding/binary"
	"fmt"
	"os"

	"repro/internal/addr"
)

// MappedTrace is a binary trace file opened for memory-mapped replay: the
// whole file is mapped read-only and records decode straight out of the
// mapping, so replay touches no read buffers, performs no read syscalls
// after open, and shares the page cache across concurrent runs of the same
// trace. On platforms without mmap support (or when mapping fails — e.g. on
// a filesystem that cannot back a shared mapping) OpenMapped degrades to the
// ordinary buffered Reader transparently; Mapped reports which path is live.
type MappedTrace struct {
	f    *os.File
	data []byte // the mapped file; nil in fallback mode
	n    int    // record count
}

// OpenMapped opens a binary trace file for memory-mapped streaming. The
// file must be a regular binary trace (header plus whole records; see
// RecordCount) — unlike the buffered Reader, the mapped reader knows the
// file size up front and rejects a truncated file at open rather than
// mid-replay. Close the returned trace when done; its streams must not be
// used afterwards.
func OpenMapped(path string) (*MappedTrace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	n := RecordCount(fi.Size())
	if n < 0 {
		f.Close()
		return nil, fmt.Errorf("trace: %s: size %d is not a whole trace header plus records", path, fi.Size())
	}
	m := &MappedTrace{f: f, n: n}
	if data, err := mapFile(f, int(fi.Size())); err == nil {
		if [4]byte{data[0], data[1], data[2], data[3]} != magic {
			unmapFile(data)
			f.Close()
			return nil, ErrBadMagic
		}
		if v := data[4]; v != binVersion {
			unmapFile(data)
			f.Close()
			return nil, fmt.Errorf("trace: unsupported version %d", v)
		}
		m.data = data
	}
	// mapFile failure is not fatal: m.data stays nil and Stream serves the
	// file through the buffered Reader instead.
	return m, nil
}

// Mapped reports whether the file is actually memory-mapped (false when the
// platform fallback is serving reads through the buffered Reader).
func (m *MappedTrace) Mapped() bool { return m.data != nil }

// Len returns the number of records in the file.
func (m *MappedTrace) Len() int { return m.n }

// Close unmaps the file and closes it. Streams taken from m must not be
// used after Close.
func (m *MappedTrace) Close() error {
	if m.data != nil {
		unmapFile(m.data)
		m.data = nil
	}
	return m.f.Close()
}

// Stream returns a sized record stream over the file. Each call returns an
// independent cursor positioned at the first record (fallback mode seeks
// the shared file handle, so take only one stream at a time there).
func (m *MappedTrace) Stream() (Stream, error) {
	if m.data != nil {
		return &MappedStream{data: m.data, n: m.n}, nil
	}
	if _, err := m.f.Seek(0, 0); err != nil {
		return nil, err
	}
	return NewReader(m.f).Stream().WithLen(m.n), nil
}

// releaseWindow is how many bytes of decoded records a MappedStream lets
// pile up behind its cursor before it hands their pages back to the kernel
// (releasePages). A mapped replay therefore keeps about one window plus one
// chunk of the file resident at any trace length, instead of every page it
// has read. The page cache keeps the file, so a released page that is read
// again (by a second cursor on the same MappedTrace) re-faults from there
// with the same bytes.
const releaseWindow = 1 << 20

// MappedStream decodes records directly from a mapped trace file: NextChunk
// reads the mapping with no intermediate buffer, so a replay's only memory
// traffic is the page-cache pages of the file itself, and it releases those
// pages again once a releaseWindow of them lies behind the cursor.
type MappedStream struct {
	data     []byte // the whole mapping, header included; data[0] is page-aligned
	pos      int    // records consumed
	n        int    // total records
	released int    // leading bytes of data already handed to releasePages
}

// decodeBatch decodes len(dst) records from src into dst. It is the one
// decoder of the binary record format: both NextChunk paths hand it whole
// chunks, and Reader.Read one record. One up-front bounds assertion covers
// the whole batch, and each record is then two word-at-a-time little-endian
// loads plus two byte loads from a constant-size sub-slice — no per-record
// slice-header arithmetic the bounds checker has to re-prove. src must hold
// at least len(dst)*recordBytes bytes.
func decodeBatch(dst []Record, src []byte) {
	if len(dst) == 0 {
		return
	}
	_ = src[len(dst)*recordBytes-1] // one bounds assertion for the batch
	off := 0
	for k := range dst {
		b := src[off : off+recordBytes : off+recordBytes]
		dst[k] = Record{
			Addr:   addr.Addr(binary.LittleEndian.Uint64(b[0:8])),
			Cycle:  binary.LittleEndian.Uint64(b[8:16]),
			Device: Device(b[16]),
			Write:  b[17]&1 != 0,
		}
		off += recordBytes
	}
}

// Next implements Stream: a one-record NextChunk, so record-at-a-time
// replay releases pages behind the cursor too.
func (s *MappedStream) Next() (Record, bool) {
	var one [1]Record
	if s.NextChunk(one[:]) == 0 {
		return Record{}, false
	}
	return one[0], true
}

// NextChunk implements Chunker: a whole engine chunk (trace.ChunkSize
// records when the engine drives it) decodes per call through decodeBatch,
// which is what RunStream's ReadChunk fast path consumes. Once a
// releaseWindow of decoded bytes has built up, every fully decoded page
// before the cursor goes back to the kernel.
func (s *MappedStream) NextChunk(dst []Record) int {
	n := s.n - s.pos
	if n <= 0 {
		return 0
	}
	if n > len(dst) {
		n = len(dst)
	}
	decodeBatch(dst[:n], s.data[headerBytes+s.pos*recordBytes:])
	s.pos += n
	if done := headerBytes + s.pos*recordBytes; done-s.released >= releaseWindow {
		cut := done - done%os.Getpagesize()
		releasePages(s.data[s.released:cut])
		s.released = cut
	}
	return n
}

// Err implements Stream; a mapped stream cannot fail after open.
func (s *MappedStream) Err() error { return nil }

// Len implements Sized.
func (s *MappedStream) Len() int { return s.n - s.pos }
