package sweepfarm

// The resume protocol. Every completed job checkpoints one obs.Artifact
// (schema v3); a later run over the same directory loads a job's artifact
// instead of re-simulating only when the manifest proves it is the same
// run: workload, prefetcher, repeat index, seed, request count, warmup,
// sampling period and the full configuration hash all must match, and the
// artifact must not record a failure or a truncated report. Everything
// else — a missing file, a corrupt file, a changed configuration, a
// partial result from an interrupted run — is treated as stale and the job
// executes again. Validation is deliberately redundant (the config hash
// already covers requests/warmup/sampling): the plain fields keep
// artifacts self-describing and guard against a hash collision or a
// future hash-format change silently accepting a foreign artifact.

import (
	"path/filepath"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// writeArtifact records one completed job at path, filling the job's fields
// into man, the grid's shared manifest; wallSec is the job's own simulation
// time (the resume check ignores it).
func writeArtifact(path string, man obs.Manifest, j Job, rep metrics.Report, wallSec float64) error {
	man.Workload = j.Cell.App
	man.Prefetcher = j.Cell.Prefetcher
	man.Requests = j.Config.Requests
	man.Warmup = j.Config.Warmup
	man.SampleEvery = j.Config.SampleEvery
	man.Seed = j.Seed
	man.Repeat = j.Repeat
	man.ConfigHash = j.Config.Hash()
	man.TraceLen = j.Config.Requests
	man.WallTimeSec = wallSec
	return obs.WriteFile(path, obs.Artifact{Manifest: man, Report: &rep})
}

// resumeJob tries to satisfy a planned job from the artifact directory.
func (r *Runner) resumeJob(j Job) (metrics.Report, bool) {
	art, err := obs.ReadFile(filepath.Join(r.ArtifactDir, j.ArtifactName()))
	if err != nil {
		return metrics.Report{}, false
	}
	if !artifactMatches(art, j) {
		return metrics.Report{}, false
	}
	return *art.Report, true
}

// artifactMatches reports whether an on-disk artifact is exactly the
// planned job's completed result.
func artifactMatches(art obs.Artifact, j Job) bool {
	m := art.Manifest
	switch {
	case art.Report == nil || art.Report.Truncated:
		return false
	case m.Failure != "":
		return false
	case m.Workload != j.Cell.App || m.Prefetcher != j.Cell.Prefetcher:
		return false
	case m.Repeat != j.Repeat || m.Seed != j.Seed:
		return false
	case m.Requests != j.Config.Requests || m.Warmup != j.Config.Warmup:
		return false
	case m.SampleEvery != j.Config.SampleEvery:
		return false
	case m.ConfigHash != j.Config.Hash():
		return false
	}
	return true
}
