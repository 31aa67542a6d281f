//go:build !linux

package trace

// releasePages does nothing where the standard library has no madvise: a
// mapped replay keeps every page it has read resident until Close.
func releasePages([]byte) {}
