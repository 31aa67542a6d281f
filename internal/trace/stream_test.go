package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/addr"
)

func streamTrace(n int) Trace {
	t := make(Trace, n)
	for i := range t {
		t[i] = streamRecord(i)
	}
	return t
}

// streamRecord is record i of streamTrace.
func streamRecord(i int) Record {
	return Record{
		Addr:   addr.Addr(0x40 * i * 3),
		Cycle:  uint64(i * 7),
		Device: Device(i % int(numDevices)),
		Write:  i%5 == 0,
	}
}

// TestSliceStream: the slice-backed stream delivers exactly the backing
// records, via both Next and chunked reads, and counts down Len.
func TestSliceStream(t *testing.T) {
	tr := streamTrace(100)
	s := tr.Stream()
	if s.Len() != 100 {
		t.Fatalf("fresh Len = %d, want 100", s.Len())
	}
	var got Trace
	buf := make([]Record, 7) // deliberately not a divisor of 100
	for {
		n := ReadChunk(s, buf)
		if n == 0 {
			break
		}
		got = append(got, buf[:n]...)
	}
	if len(got) != len(tr) {
		t.Fatalf("stream delivered %d records, want %d", len(got), len(tr))
	}
	for i := range tr {
		if got[i] != tr[i] {
			t.Fatalf("record %d: %v != %v", i, got[i], tr[i])
		}
	}
	if s.Len() != 0 {
		t.Fatalf("drained Len = %d, want 0", s.Len())
	}
	if _, ok := s.Next(); ok {
		t.Fatal("drained stream still yields records")
	}
	if s.Err() != nil {
		t.Fatalf("slice stream reported error %v", s.Err())
	}
}

// TestReaderStream: the binary-file stream round-trips a written trace
// record-for-record without materializing it, and WithLen makes it Sized.
func TestReaderStream(t *testing.T) {
	tr := streamTrace(50)
	var buf bytes.Buffer
	if err := WriteAll(&buf, tr); err != nil {
		t.Fatal(err)
	}
	n := RecordCount(int64(buf.Len()))
	if n != 50 {
		t.Fatalf("RecordCount = %d, want 50", n)
	}
	s := NewReader(&buf).Stream()
	if s.Len() != -1 {
		t.Fatalf("undeclared Len = %d, want -1", s.Len())
	}
	s.WithLen(n)
	if s.Len() != 50 {
		t.Fatalf("declared Len = %d, want 50", s.Len())
	}
	for i := range tr {
		rec, ok := s.Next()
		if !ok {
			t.Fatalf("stream ended early at %d: %v", i, s.Err())
		}
		if rec != tr[i] {
			t.Fatalf("record %d: %v != %v", i, rec, tr[i])
		}
	}
	if _, ok := s.Next(); ok {
		t.Fatal("stream yields records past the end")
	}
	if s.Err() != nil {
		t.Fatalf("clean EOF reported error %v", s.Err())
	}
}

// TestReaderStreamTruncated: a mid-record cut terminates the stream with a
// non-nil Err (clean EOF stays nil — previous test).
func TestReaderStreamTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, streamTrace(3)); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-5]
	s := NewReader(bytes.NewReader(cut)).Stream()
	n := 0
	for {
		if _, ok := s.Next(); !ok {
			break
		}
		n++
	}
	if n != 2 {
		t.Fatalf("truncated stream delivered %d records, want 2", n)
	}
	if s.Err() == nil {
		t.Fatal("truncated stream reported no error")
	}
}

// TestRecordCount rejects sizes that cannot be a whole header plus whole
// records.
func TestRecordCount(t *testing.T) {
	for _, tc := range []struct {
		size int64
		want int
	}{
		{0, -1}, {7, -1}, {8, 0}, {8 + 18, 1}, {8 + 18*1000, 1000}, {8 + 17, -1}, {9, -1},
	} {
		if got := RecordCount(tc.size); got != tc.want {
			t.Errorf("RecordCount(%d) = %d, want %d", tc.size, got, tc.want)
		}
	}
}

// TestStreamLen covers the Sized probe on all three producer kinds.
func TestStreamLen(t *testing.T) {
	tr := streamTrace(10)
	if n := StreamLen(tr.Stream()); n != 10 {
		t.Fatalf("slice StreamLen = %d", n)
	}
	var buf bytes.Buffer
	_ = WriteAll(&buf, tr)
	if n := StreamLen(NewReader(&buf).Stream()); n != -1 {
		t.Fatalf("unsized reader StreamLen = %d, want -1", n)
	}
}

// TestWithLenShortFile: a source that ends before delivering the declared
// record count must fail the stream with ErrLenMismatch — a silently short
// stream would mis-place every warmup boundary computed from Len.
func TestWithLenShortFile(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, streamTrace(50)); err != nil {
		t.Fatal(err)
	}
	s := NewReader(&buf).Stream().WithLen(60)
	n := 0
	for {
		if _, ok := s.Next(); !ok {
			break
		}
		n++
	}
	if n != 50 {
		t.Fatalf("short source delivered %d records, want 50", n)
	}
	if !errors.Is(s.Err(), ErrLenMismatch) {
		t.Fatalf("short source Err = %v, want ErrLenMismatch", s.Err())
	}
}

// TestWithLenLongFile: a source that keeps decoding past the declared count
// stops at the declaration and fails, instead of silently delivering more
// records than the warmup arithmetic assumed.
func TestWithLenLongFile(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, streamTrace(50)); err != nil {
		t.Fatal(err)
	}
	s := NewReader(&buf).Stream().WithLen(40)
	var got Trace
	chunk := make([]Record, 16)
	for {
		n := ReadChunk(s, chunk)
		if n == 0 {
			break
		}
		got = append(got, chunk[:n]...)
	}
	if len(got) != 40 {
		t.Fatalf("long source delivered %d records, want 40", len(got))
	}
	if !errors.Is(s.Err(), ErrLenMismatch) {
		t.Fatalf("long source Err = %v, want ErrLenMismatch", s.Err())
	}
}

// lyingStream declares a length unrelated to what it delivers (it may even
// be negative) — consumers must treat Len as advisory, never as a promise.
type lyingStream struct {
	inner *SliceStream
	len   int
}

func (l *lyingStream) Next() (Record, bool) { return l.inner.Next() }
func (l *lyingStream) Err() error           { return l.inner.Err() }
func (l *lyingStream) Len() int             { return l.len }

// TestStreamLenLiar: StreamLen forwards a positive lie untouched (callers
// own the consequences) and maps any negative value to the single unknown
// sentinel -1.
func TestStreamLenLiar(t *testing.T) {
	tr := streamTrace(5)
	if n := StreamLen(&lyingStream{inner: tr.Stream(), len: 1000}); n != 1000 {
		t.Fatalf("positive lie StreamLen = %d, want 1000", n)
	}
	for _, lie := range []int{-1, -7, -1 << 40} {
		if n := StreamLen(&lyingStream{inner: tr.Stream(), len: lie}); n != -1 {
			t.Fatalf("negative Len %d: StreamLen = %d, want -1", lie, n)
		}
	}
}

// TestReadChunkLiar: ReadChunk delivers what the stream actually has, not
// what Len claims, and terminates cleanly either way.
func TestReadChunkLiar(t *testing.T) {
	tr := streamTrace(5)
	s := &lyingStream{inner: tr.Stream(), len: 1000}
	buf := make([]Record, 64)
	if n := ReadChunk(s, buf); n != 5 {
		t.Fatalf("over-declared stream: ReadChunk = %d, want 5", n)
	}
	if n := ReadChunk(s, buf); n != 0 {
		t.Fatalf("drained stream: ReadChunk = %d, want 0", n)
	}
	s2 := &lyingStream{inner: tr.Stream(), len: -3}
	if n := ReadChunk(s2, buf); n != 5 {
		t.Fatalf("negative-Len stream: ReadChunk = %d, want 5", n)
	}
}

// flakyReader fails exactly once with a transient-looking error after
// limit bytes, then would happily serve the rest — a source whose failure
// looks retryable.
type flakyReader struct {
	data   []byte
	pos    int
	limit  int
	failed bool
	reads  int
}

func (f *flakyReader) Read(p []byte) (int, error) {
	f.reads++
	if !f.failed && f.pos >= f.limit {
		f.failed = true
		return 0, errors.New("transient I/O error")
	}
	if f.pos >= len(f.data) {
		return 0, io.EOF
	}
	n := copy(p, f.data[f.pos:])
	if !f.failed && f.pos+n > f.limit {
		n = f.limit - f.pos
	}
	f.pos += n
	return n, nil
}

// TestReaderStreamNoResume: after a mid-stream error the stream must stay
// stopped — never touching the source again — even though the source would
// serve more data on retry. A partial re-read would silently skip records.
func TestReaderStreamNoResume(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, streamTrace(30)); err != nil {
		t.Fatal(err)
	}
	fr := &flakyReader{data: buf.Bytes(), limit: 8 + 18*12 + 5} // dies mid-record 13
	s := NewReader(fr).Stream()
	n := 0
	for {
		if _, ok := s.Next(); !ok {
			break
		}
		n++
	}
	if s.Err() == nil {
		t.Fatal("flaky source error swallowed")
	}
	if n > 13 {
		t.Fatalf("delivered %d records across a transient failure", n)
	}
	readsAtFailure := fr.reads
	for i := 0; i < 3; i++ {
		if _, ok := s.Next(); ok {
			t.Fatal("stopped stream resumed after a transient error")
		}
	}
	if fr.reads != readsAtFailure {
		t.Fatalf("stopped stream re-read the source (%d reads after failure)", fr.reads-readsAtFailure)
	}
	if s.Err() == nil {
		t.Fatal("error cleared after extra Next calls")
	}
}

// TestReaderChunkParityLong runs the chunk/record parity check on inputs
// longer than one engine chunk, which the fuzz corpus rarely reaches: a
// NextChunk call then spans several reads, and the cut variant ends
// mid-record in the last one.
func TestReaderChunkParityLong(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, streamTrace(3*ChunkSize+5)); err != nil {
		t.Fatal(err)
	}
	sizes := []int{ChunkSize, 2*ChunkSize + 1, 1000, 1}
	checkReaderChunkParity(t, buf.Bytes(), sizes)
	checkReaderChunkParity(t, buf.Bytes()[:buf.Len()-7], sizes)
}

// TestNextChunkAllocs pins NextChunk allocation-free after the first call,
// both on a File's stream, which reads the file at its own offset, and on a
// stream over an in-memory reader, once each has its read buffer.
func TestNextChunkAllocs(t *testing.T) {
	tr := streamTrace(8 * ChunkSize)
	var buf bytes.Buffer
	if err := WriteAll(&buf, tr); err != nil {
		t.Fatal(err)
	}
	f, err := Open(writeTempFile(t, buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	file, err := f.Stream()
	if err != nil {
		t.Fatal(err)
	}
	inMemory := NewReader(bytes.NewReader(buf.Bytes())).Stream().WithLen(len(tr))
	// Every measured call delivers a whole chunk, so one allocation per call
	// cannot vanish in AllocsPerRun's integer average.
	runs := len(tr)/ChunkSize - 1
	dst := make([]Record, ChunkSize)
	for name, s := range map[string]Stream{"file": file, "in-memory": inMemory} {
		n := 0
		if a := testing.AllocsPerRun(runs, func() { n += ReadChunk(s, dst) }); a != 0 {
			t.Errorf("%s NextChunk: %v allocs per call, want 0", name, a)
		}
		if want := (runs + 1) * ChunkSize; n != want || s.Err() != nil {
			t.Errorf("%s stream delivered %d records (Err %v), want %d", name, n, s.Err(), want)
		}
	}
}
