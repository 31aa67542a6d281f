package obs

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartCPUProfile begins a CPU profile written to path and returns the
// function that stops the profile and closes the file. The caller must
// invoke stop (typically via defer) for the profile to be flushed.
func StartCPUProfile(path string) (stop func() error, err error) {
	// The profile streams into path while the run executes, so it cannot
	// go through WriteAtomic: a run killed mid-profile leaves a torn file.
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("obs: cpu profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
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
