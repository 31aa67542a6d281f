package trace

import "testing"

// benchSink keeps the decoded records observable so the compiler cannot
// elide the decode loop.
var benchSink Record

// BenchmarkBatchDecode measures the batch decode behind
// ReaderStream.NextChunk: one engine chunk (ChunkSize records) decoded per
// op through decodeBatch from an in-memory buffer, the shape NextChunk hands
// it after each read (the file read itself is not part of what this
// measures). Must stay allocation-free (pinned in BENCH_baseline.json);
// SetBytes makes the MB/s column the decode rate.
func BenchmarkBatchDecode(b *testing.B) {
	const n = ChunkSize
	src := make([]byte, n*recordBytes)
	for i := range src {
		src[i] = byte(i * 2654435761)
	}
	dst := make([]Record, n)
	b.SetBytes(n * recordBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decodeBatch(dst, src)
	}
	benchSink = dst[n-1]
}
