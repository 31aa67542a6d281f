package trace

import "syscall"

// releasePages hands b, a page-aligned range of a read-only shared file
// mapping, back to the kernel: MADV_DONTNEED drops its pages from the
// process's resident set, and a later read re-faults them from the page
// cache with the same bytes.
func releasePages(b []byte) {
	// madvise fails only on a range that is not page-aligned or not mapped,
	// which a caller bug alone produces; a failed release costs residency,
	// never correctness, so there is nothing for the caller to handle.
	_ = syscall.Madvise(b, syscall.MADV_DONTNEED)
}
