package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// session is one benchmark process: the repository it measures, the CLIs
// built from it, and a scratch directory that is removed on exit.
type session struct {
	ctx   context.Context
	root  string // repository root
	work  string // this process's scratch directory
	tools tools
	nproc int
	env   []string  // child environment: GOMAXPROCS pinned to nproc
	log   io.Writer // progress lines
}

// tools are the CLI binaries under test.
type tools struct{ sim, exp, gen string }

// findRoot returns the repository root: the working directory or its
// parent, whichever holds the simulator's sources.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "planaria-sim")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("no repository sources (cmd/planaria-sim) in %s or its parent", wd)
}

// newSession builds the three CLIs with the running toolchain into
// .bench_build/bin and creates the scratch directory. Close removes it.
func newSession(ctx context.Context, root string, log io.Writer) (*session, error) {
	build := filepath.Join(root, ".bench_build")
	bin := filepath.Join(build, "bin")
	if err := os.MkdirAll(filepath.Join(build, "work"), 0o755); err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin+string(filepath.Separator),
		"./cmd/planaria-sim", "./cmd/experiments", "./cmd/tracegen")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("building the CLIs: %w", err)
	}
	work, err := os.MkdirTemp(filepath.Join(build, "work"), "run-")
	if err != nil {
		return nil, err
	}
	nproc := runtime.NumCPU()
	return &session{
		ctx:  ctx,
		root: root,
		work: work,
		tools: tools{
			sim: filepath.Join(bin, "planaria-sim"),
			exp: filepath.Join(bin, "experiments"),
			gen: filepath.Join(bin, "tracegen"),
		},
		nproc: nproc,
		env:   append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(nproc)),
		log:   log,
	}, nil
}

// Close removes the scratch directory.
func (s *session) Close() error { return os.RemoveAll(s.work) }

func (s *session) benchDir() string { return filepath.Join(s.root, "bench") }

func (s *session) logf(format string, args ...any) { fmt.Fprintf(s.log, format+"\n", args...) }

// sample is one child process's cost.
type sample struct {
	wall, cpu float64 // seconds; cpu is user + system
	rssMiB    float64 // peak resident set
}

// run executes prog to completion and returns its cost; a failure carries
// the tail of the child's output. Only one child runs at a time: run blocks
// until it has exited.
func (s *session) run(prog string, args ...string) (sample, error) {
	cmd := exec.CommandContext(s.ctx, prog, args...)
	cmd.Env = s.env
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start).Seconds()
	if err != nil {
		return sample{}, fmt.Errorf("%s: %w: %s", filepath.Base(prog), err, lastLines(out.Bytes(), 5))
	}
	sm := sample{wall: wall}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		sm.cpu = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		sm.rssMiB = float64(ru.Maxrss) / 1024 // KiB on Linux
	}
	return sm, nil
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// lastLines returns the final n lines of b, for error messages.
func lastLines(b []byte, n int) string {
	b = bytes.TrimRight(b, "\n")
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] == '\n' {
			if n--; n == 0 {
				return string(b[i+1:])
			}
		}
	}
	return string(b)
}
