package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/addr"
)

// writeTempFile writes raw bytes to a file under the test's temp dir.
func writeTempFile(t *testing.T, raw []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.bin")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeTempTrace encodes tr and writes it under the test's temp dir.
func writeTempTrace(t *testing.T, tr Trace) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteAll(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return writeTempFile(t, buf.Bytes())
}

func randomTrace(n int, seed int64) Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := make(Trace, n)
	cycle := uint64(0)
	for i := range tr {
		cycle += uint64(rng.Intn(50))
		tr[i] = Record{
			Addr:   addr.Addr(rng.Uint64() &^ uint64(addr.BlockBytes-1)),
			Cycle:  cycle,
			Device: Device(rng.Intn(int(numDevices))),
			Write:  rng.Intn(4) == 0,
		}
	}
	return tr
}

func TestOpenRoundTrip(t *testing.T) {
	want := randomTrace(3000, 7)
	f, err := Open(writeTempTrace(t, want))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", f.Len(), len(want))
	}
	// Both replay paths — record-at-a-time and chunked — must reproduce
	// the trace exactly, and a second Stream must start from the top.
	for pass := 0; pass < 2; pass++ {
		s, err := f.Stream()
		if err != nil {
			t.Fatal(err)
		}
		if got := StreamLen(s); got != len(want) {
			t.Fatalf("pass %d: StreamLen = %d, want %d", pass, got, len(want))
		}
		var got Trace
		if pass == 0 {
			for {
				rec, ok := s.Next()
				if !ok {
					break
				}
				got = append(got, rec)
			}
		} else {
			got = drain(s, 100) // deliberately not a divisor-friendly size
		}
		if err := s.Err(); err != nil {
			t.Fatalf("pass %d: stream error: %v", pass, err)
		}
		if len(got) != len(want) {
			t.Fatalf("pass %d: %d records, want %d", pass, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("pass %d: record %d = %+v, want %+v", pass, i, got[i], want[i])
			}
		}
	}
}

func TestOpenEmptyTrace(t *testing.T) {
	f, err := Open(writeTempTrace(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Len() != 0 {
		t.Fatalf("Len = %d, want 0", f.Len())
	}
	s, err := f.Stream()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Next(); ok {
		t.Fatal("record from an empty trace")
	}
}

func TestOpenRejectsCorruptFiles(t *testing.T) {
	var good bytes.Buffer
	if err := WriteAll(&good, randomTrace(3, 1)); err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":       {},
		"short":       good.Bytes()[:headerBytes-2],
		"mid-record":  good.Bytes()[:headerBytes+recordBytes+5],
		"bad magic":   append([]byte("XXXX"), good.Bytes()[4:]...),
		"bad version": append([]byte("PLTR\x63\x00\x00\x00"), good.Bytes()[headerBytes:]...),
	}
	for name, raw := range cases {
		if f, err := Open(writeTempFile(t, raw)); err == nil {
			f.Close()
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := Open(filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Error("missing file: accepted")
	}
}

// TestOpenMatchesReader pins decode parity between a File's chunked stream
// and the record-at-a-time Reader on the same bytes.
func TestOpenMatchesReader(t *testing.T) {
	tr := randomTrace(500, 42)
	var buf bytes.Buffer
	if err := WriteAll(&buf, tr); err != nil {
		t.Fatal(err)
	}
	viaReader, err := ReadAllFrom(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	f, err := Open(writeTempFile(t, buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := f.Stream()
	if err != nil {
		t.Fatal(err)
	}
	for i := range viaReader {
		rec, ok := s.Next()
		if !ok {
			t.Fatalf("file stream ended at %d of %d", i, len(viaReader))
		}
		if rec != viaReader[i] {
			t.Fatalf("record %d: file %+v, reader %+v", i, rec, viaReader[i])
		}
	}
	if _, ok := s.Next(); ok {
		t.Fatal("file stream is longer than the reader's")
	}
}

// drain reads s to its end in chunks of size and returns the records.
func drain(s Stream, size int) Trace {
	var got Trace
	buf := make([]Record, size)
	for {
		n := ReadChunk(s, buf)
		if n == 0 {
			return got
		}
		got = append(got, buf[:n]...)
	}
}

// TestOpenTruncatedDuringReplay: a trace file cut back to a few whole
// records under a replay (overwritten in place, say) must end the stream
// with ErrLenMismatch, not fault and not pass for a shorter trace.
func TestOpenTruncatedDuringReplay(t *testing.T) {
	tr := streamTrace(3*ChunkSize + 5)
	path := writeTempTrace(t, tr)
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := f.Stream()
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]Record, ChunkSize)
	if n := ReadChunk(s, dst); n != ChunkSize {
		t.Fatalf("first chunk = %d records, want %d", n, ChunkSize)
	}
	if err := os.Truncate(path, headerBytes+10*recordBytes); err != nil {
		t.Fatal(err)
	}
	got := ChunkSize + len(drain(s, ChunkSize))
	if !errors.Is(s.Err(), ErrLenMismatch) {
		t.Fatalf("stream over a truncated file ended with %v after %d records, want ErrLenMismatch", s.Err(), got)
	}
	if got >= len(tr) {
		t.Fatalf("stream delivered all %d records of a truncated file", got)
	}
}

// TestOpenIndependentStreams: two streams taken from one File, pulled in
// turn, must each deliver the whole trace — neither cursor may move the
// other's.
func TestOpenIndependentStreams(t *testing.T) {
	tr := streamTrace(3*ChunkSize + 5)
	f, err := Open(writeTempTrace(t, tr))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var streams [2]Stream
	for i := range streams {
		if streams[i], err = f.Stream(); err != nil {
			t.Fatal(err)
		}
	}
	var got [2]Trace
	dst := make([]Record, 1000)
	for live := true; live; {
		live = false
		for i, s := range streams {
			n := ReadChunk(s, dst)
			got[i] = append(got[i], dst[:n]...)
			live = live || n > 0
		}
	}
	for i, s := range streams {
		if s.Err() != nil {
			t.Fatalf("stream %d: %v", i, s.Err())
		}
		if len(got[i]) != len(tr) {
			t.Fatalf("stream %d delivered %d records, want %d", i, len(got[i]), len(tr))
		}
		for k := range tr {
			if got[i][k] != tr[k] {
				t.Fatalf("stream %d record %d = %+v, want %+v", i, k, got[i][k], tr[k])
			}
		}
	}
}

// FuzzOpenParity feeds arbitrary bytes to Open and to the record-at-a-time
// Reader: Open must accept exactly the inputs the Reader decodes cleanly
// (header included), and its stream must yield the same records. Open only
// pre-checks what the Reader would fail on mid-stream.
func FuzzOpenParity(f *testing.F) {
	var good bytes.Buffer
	_ = WriteAll(&good, Trace{
		{Addr: 0x1000, Cycle: 5, Device: GPU},
		{Addr: 0x2040, Cycle: 9, Device: CPU3, Write: true},
	})
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:headerBytes])
	f.Add(good.Bytes()[:headerBytes+recordBytes-3])
	f.Add([]byte("PLTR\xff\x00\x00\x00"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.bin")
		if err := os.WriteFile(path, in, 0o644); err != nil {
			t.Skip() // filesystem hiccup, not a decoder property
		}
		viaReader, readerErr := ReadAllFrom(bytes.NewReader(in))
		tf, err := Open(path)
		if err != nil {
			if readerErr == nil && len(in) >= headerBytes {
				t.Fatalf("Open rejected (%v) what the reader decodes cleanly", err)
			}
			return
		}
		defer tf.Close()
		if readerErr != nil {
			t.Fatalf("Open accepted what the reader rejects: %v", readerErr)
		}
		s, err := tf.Stream()
		if err != nil {
			t.Fatal(err)
		}
		got := drain(s, 7)
		if s.Err() != nil {
			t.Fatalf("file stream failed on accepted file: %v", s.Err())
		}
		if len(got) != len(viaReader) {
			t.Fatalf("file stream %d records, reader %d", len(got), len(viaReader))
		}
		for i := range got {
			if got[i] != viaReader[i] {
				t.Fatalf("record %d: file %+v, reader %+v", i, got[i], viaReader[i])
			}
		}
	})
}
