package trace

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// mappedResidentKB returns how much of the process's resident set is file
// pages plus shared memory, in KiB: the pages a file mapping holds (a file
// on tmpfs counts as shared memory), without the heap's noise.
func mappedResidentKB(t *testing.T) int {
	t.Helper()
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Skipf("no /proc/self/status: %v", err)
	}
	total, found := 0, 0
	for _, line := range bytes.Split(raw, []byte("\n")) {
		f := bytes.Fields(line)
		if len(f) < 2 || (string(f[0]) != "RssFile:" && string(f[0]) != "RssShmem:") {
			continue
		}
		kb, err := strconv.Atoi(string(f[1]))
		if err != nil {
			t.Fatalf("bad %s line %q", f[0], line)
		}
		total += kb
		found++
	}
	if found != 2 {
		t.Skip("kernel reports no RssFile/RssShmem split")
	}
	return total
}

// TestMappedReplayResidency streams a trace 32 release windows long
// through OpenMapped and NextChunk and checks, after every chunk, that the
// mapping holds no more than a few windows of the file resident: replay
// memory must not grow with the trace. Every record must still decode
// exactly, including those on pages released and never touched again.
func TestMappedReplayResidency(t *testing.T) {
	const records = 32 * releaseWindow / recordBytes
	path := filepath.Join(t.TempDir(), "long.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() // for the error paths; the success path checks Close
	w := NewWriter(bufio.NewWriterSize(f, 1<<16))
	for i := 0; i < records; i++ {
		if err := w.Write(streamRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if !m.Mapped() {
		t.Skip("the temp directory's file system cannot back a shared mapping")
	}
	s, err := m.Stream()
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]Record, ChunkSize)
	base := mappedResidentKB(t)
	peak, next := 0, 0
	for {
		n := ReadChunk(s, dst)
		if n == 0 {
			break
		}
		for k, rec := range dst[:n] {
			if want := streamRecord(next + k); rec != want {
				t.Fatalf("record %d = %+v, want %+v", next+k, rec, want)
			}
		}
		next += n
		peak = max(peak, mappedResidentKB(t)-base)
	}
	if next != records {
		t.Fatalf("streamed %d records, want %d", next, records)
	}
	const boundKB = 4 * releaseWindow >> 10
	if peak > boundKB {
		t.Fatalf("mapped replay of a %d KiB file grew resident file pages by %d KiB, bound %d KiB",
			records*recordBytes>>10, peak, boundKB)
	}
	t.Logf("resident file pages grew by at most %d KiB over a %d KiB file", peak, records*recordBytes>>10)
}
