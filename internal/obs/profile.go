package obs

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartCPUProfile begins a CPU profile written to path and returns the
// function that stops the profile and moves it into place. The caller must
// invoke stop before the process exits (os.Exit skips deferred calls) for
// the profile to reach path, and check its error. The profile streams into
// a temporary file in path's directory, named as WriteAtomic names its
// own, and stop renames it over path: a run killed mid-profile leaves no
// file at path, never a torn one.
func StartCPUProfile(path string) (stop func() error, err error) {
	f, err := createTemp(path)
	if err != nil {
		return nil, fmt.Errorf("obs: cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, fmt.Errorf("obs: cpu profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := commit(f, path); err != nil {
			return fmt.Errorf("obs: cpu profile: %w", err)
		}
		return nil
	}, nil
}

// WriteHeapProfile runs a GC (so the profile reflects live objects, not
// garbage) and writes the heap profile to path through WriteAtomic.
func WriteHeapProfile(path string) error {
	runtime.GC()
	if err := WriteAtomic(path, pprof.WriteHeapProfile); err != nil {
		return fmt.Errorf("obs: heap profile: %w", err)
	}
	return nil
}
