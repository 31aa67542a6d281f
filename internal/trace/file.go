package trace

import (
	"fmt"
	"io"
	"os"
)

// File is a binary trace file opened by Open for streaming replay. Every
// Stream is an independent sized cursor that reads the file in engine-chunk
// batches, so a replay holds O(chunk) memory at any trace length.
type File struct {
	f    *os.File
	size int64
	n    int // record count
}

// Open opens a binary trace file for streaming replay. The file must be a
// regular binary trace: its size a header plus whole records (RecordCount)
// and its header a supported one, so a torn or foreign file is rejected at
// open rather than mid-replay. A file that shrinks after Open ends its
// streams with an error (ErrLenMismatch when the cut falls between
// records). Close the returned File when done; its streams must not be
// used afterwards.
func Open(path string) (*File, error) {
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
	var h [headerBytes]byte
	if _, err := f.ReadAt(h[:], 0); err != nil {
		f.Close()
		return nil, err
	}
	if err := checkHeader(h); err != nil {
		f.Close()
		return nil, err
	}
	return &File{f: f, size: fi.Size(), n: n}, nil
}

// OpenMapped is the former name of Open.
//
// Deprecated: use Open. Trace files are no longer memory-mapped.
func OpenMapped(path string) (*File, error) { return Open(path) }

// Len returns the number of records in the file.
func (t *File) Len() int { return t.n }

// Close closes the file. Streams taken from t must not be used after Close.
func (t *File) Close() error { return t.f.Close() }

// Stream returns a record stream over the file, sized to its record count.
// Each call returns an independent cursor positioned at the first record:
// streams read at their own offsets and share nothing but the file handle.
// The error is always nil.
func (t *File) Stream() (*ReaderStream, error) {
	return NewReader(io.NewSectionReader(t.f, 0, t.size)).Stream().WithLen(t.n), nil
}
