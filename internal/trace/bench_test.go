package trace

import "testing"

// benchSink keeps the decoded records observable so the compiler cannot
// elide the decode loop.
var benchSink Record

// BenchmarkMappedBatchDecode measures the batch decode path behind
// MappedStream.NextChunk: one engine chunk (ChunkSize records) decoded per
// op straight from an in-memory image of a mapped file, exactly the shape
// NextChunk sees over the mmap (the mapping is just bytes — the kernel page
// cache is not part of what this measures, and one chunk stays far below
// the release window). Must stay allocation-free (pinned in
// BENCH_baseline.json); SetBytes makes the MB/s column the decode rate.
func BenchmarkMappedBatchDecode(b *testing.B) {
	const n = ChunkSize
	src := make([]byte, headerBytes+n*recordBytes)
	for i := range src {
		src[i] = byte(i * 2654435761)
	}
	dst := make([]Record, n)
	b.SetBytes(n * recordBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := MappedStream{data: src, n: n}
		if got := s.NextChunk(dst); got != n {
			b.Fatalf("NextChunk = %d records, want %d", got, n)
		}
	}
	benchSink = dst[n-1]
}
