package trace

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// FuzzReadText exercises the text-trace parser: it must never panic, and
// anything it accepts must round-trip through WriteText.
func FuzzReadText(f *testing.F) {
	f.Add("10 R 0x1000 cpu0\n")
	f.Add("# comment\n\n5 W 0x40 gpu\n")
	f.Add("bogus line\n")
	f.Add("10 R 0x1000\n")
	f.Add("99999999999999999999 R 0x0 dsp\n")
	f.Add("1 r 64 isp\n2 w 128 npu\n")
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := ReadText(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, tr); err != nil {
			t.Fatalf("WriteText failed on accepted trace: %v", err)
		}
		tr2, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if len(tr2) != len(tr) {
			t.Fatalf("round trip changed length: %d vs %d", len(tr2), len(tr))
		}
		for i := range tr {
			if tr[i] != tr2[i] {
				t.Fatalf("record %d changed: %v vs %v", i, tr[i], tr2[i])
			}
		}
	})
}

// FuzzReader exercises the record-at-a-time binary decoder directly (the
// streaming pipeline's file producer): on truncated or corrupt input,
// Reader.Read must return an error — never panic, and never spin by
// inventing records the input cannot hold. The corpus seeds a valid header
// plus records and several corruptions of it.
func FuzzReader(f *testing.F) {
	var good bytes.Buffer
	_ = WriteAll(&good, Trace{
		{Addr: 0x1000, Cycle: 5, Device: GPU},
		{Addr: 0x2040, Cycle: 9, Device: CPU3, Write: true},
	})
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:headerBytes])               // header only
	f.Add(good.Bytes()[:headerBytes+recordBytes-3]) // mid-record cut
	f.Add(append([]byte{}, good.Bytes()[1:]...))    // shifted magic
	f.Add([]byte("PLTR\xff\x00\x00\x00"))           // bad version
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		r := NewReader(bytes.NewReader(in))
		// The input can hold at most this many whole records; one slack
		// read allows the final EOF probe.
		max := len(in)/recordBytes + 1
		reads := 0
		for {
			_, err := r.Read()
			if err != nil {
				// io.EOF (clean end) or a decode error — both fine; a
				// panic or an unbounded loop is the failure mode.
				return
			}
			reads++
			if reads > max {
				t.Fatalf("reader produced %d records from %d bytes (spinning?)", reads, len(in))
			}
		}
	})
}

// FuzzReadBinary: the binary reader must never panic on arbitrary bytes.
func FuzzReadBinary(f *testing.F) {
	var good bytes.Buffer
	_ = WriteAll(&good, Trace{{Addr: 0x1000, Cycle: 5, Device: GPU}})
	f.Add(good.Bytes())
	f.Add([]byte("PLTR"))
	f.Add([]byte("PLTR\x01\x00\x00\x00short"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		tr, err := ReadAllFrom(bytes.NewReader(in))
		if err != nil {
			return
		}
		// Accepted traces re-encode cleanly.
		var buf bytes.Buffer
		if err := WriteAll(&buf, tr); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
	})
}

// FuzzReaderChunkParity drains arbitrary bytes through ReaderStream twice,
// record-at-a-time through Next and in chunks of varying size through
// NextChunk, and requires the same records and the same Err() from both:
// unsized, and under WithLen below, at and above the number of whole
// records the input holds. The unsized drain must also match ReadAllFrom,
// which decodes record by record through Reader.Read. A stopped stream
// must stay stopped on both paths.
func FuzzReaderChunkParity(f *testing.F) {
	var good bytes.Buffer
	_ = WriteAll(&good, streamTrace(40))
	f.Add(good.Bytes(), uint8(7))
	f.Add(good.Bytes()[:headerBytes], uint8(1))
	f.Add(good.Bytes()[:headerBytes+3*recordBytes-5], uint8(2)) // mid-record cut
	f.Add(good.Bytes()[:5], uint8(3))                           // mid-header cut
	f.Add([]byte("PLTR\xff\x00\x00\x00"), uint8(4))             // bad version
	f.Add(append([]byte("XXXX"), good.Bytes()[4:]...), uint8(5))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, in []byte, step uint8) {
		// Chunk sizes cycle within one drain, so calls start and end at
		// every offset; the largest spans more than one engine chunk.
		checkReaderChunkParity(t, in, []int{1, int(step)%17 + 1, 2, 2*ChunkSize + 1})
	})
}

// checkReaderChunkParity drains in through Next and through NextChunk with
// dst lengths cycling through sizes, unsized and under WithLen below, at
// and above the whole-record count (below an empty input is -1, which must
// leave the stream unsized), and fails on any difference in the records,
// Err or Len, on an unsized drain that differs from ReadAllFrom, or on a
// stopped stream that resumes.
func checkReaderChunkParity(t *testing.T, in []byte, sizes []int) {
	t.Helper()
	whole := 0
	if len(in) > headerBytes {
		whole = (len(in) - headerBytes) / recordBytes
	}
	const unsized = math.MinInt // no WithLen call
	for _, declared := range []int{unsized, whole - 1, whole, whole + 1} {
		open := func() *ReaderStream {
			s := NewReader(bytes.NewReader(in)).Stream()
			if declared != unsized {
				s.WithLen(declared)
			}
			return s
		}
		byRecord, byChunk := open(), open()
		var want Trace
		for {
			rec, ok := byRecord.Next()
			if !ok {
				break
			}
			want = append(want, rec)
		}
		if declared == unsized {
			all, err := ReadAllFrom(bytes.NewReader(in))
			if !slices.Equal(all, want) || fmt.Sprint(err) != fmt.Sprint(byRecord.Err()) {
				t.Fatalf("unsized: Next delivered %d records with Err %v, ReadAllFrom %d with %v",
					len(want), byRecord.Err(), len(all), err)
			}
		}
		var got Trace
		for i := 0; ; i++ {
			buf := make([]Record, sizes[i%len(sizes)])
			n := byChunk.NextChunk(buf)
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		if len(got) != len(want) {
			t.Fatalf("declared %d: NextChunk delivered %d records, Next %d", declared, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("declared %d: record %d: NextChunk %+v, Next %+v", declared, i, got[i], want[i])
			}
		}
		if a, b := fmt.Sprint(byChunk.Err()), fmt.Sprint(byRecord.Err()); a != b {
			t.Fatalf("declared %d: NextChunk Err %q, Next Err %q", declared, a, b)
		}
		if byChunk.Len() != byRecord.Len() {
			t.Fatalf("declared %d: Len after NextChunk %d, after Next %d", declared, byChunk.Len(), byRecord.Len())
		}
		// Both streams have stopped; neither path may resume either.
		for _, s := range []*ReaderStream{byRecord, byChunk} {
			if _, ok := s.Next(); ok {
				t.Fatalf("declared %d: Next resumed a stopped stream", declared)
			}
			if n := s.NextChunk(make([]Record, 3)); n != 0 {
				t.Fatalf("declared %d: NextChunk resumed a stopped stream (%d records)", declared, n)
			}
		}
	}
}
