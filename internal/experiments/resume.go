package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/hunter-cdb/hunter/internal/core"
	"github.com/hunter-cdb/hunter/internal/telemetry"
	"github.com/hunter-cdb/hunter/internal/tuner"
)

// RunResumeIdentity demonstrates the durability contract of the checkpoint
// subsystem end to end: a HUNTER session is run to completion (the golden
// run), then the identical session is run again but killed at a wave
// boundary via CheckpointPolicy.StopAfterWaves, abandoned, and continued
// from its on-disk snapshot in a fresh process state. The resumed run's
// final report and virtual-time telemetry trace must be byte-identical to
// the golden run's — any divergence fails the experiment.
//
// With Config.ResumeOnly set the golden and kill legs are skipped and the
// experiment just continues whatever snapshot is in Config.CheckpointDir
// (the hunter-repro -resume flag).
func RunResumeIdentity(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	p := tpccMySQL()
	budget := cfg.budget(8 * time.Hour)
	opts := core.Options{SampleTarget: cfg.scaledSampleTarget()}
	const clones = 3
	seed := cfg.Seed + 4100

	stopAfter := cfg.StopAfterWaves
	if stopAfter <= 0 {
		stopAfter = 5
	}
	dir := cfg.CheckpointDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "hunter-resume-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	req := func(rec *telemetry.Recorder, policy *tuner.CheckpointPolicy) tuner.Request {
		r := cfg.request(p, budget, clones, seed)
		r.Recorder, r.Checkpoint = rec, policy
		return r
	}
	policy := &tuner.CheckpointPolicy{Dir: dir, Every: cfg.CheckpointEvery}

	// resumeLeg continues the snapshot in dir with a fresh recorder (the
	// recorder's own history is restored from the checkpoint, exactly as a
	// restarted process would see it).
	resumeLeg := func() (string, []byte, error) {
		rec := telemetry.New()
		s, f, err := tuner.ResumeSession(context.Background(), req(rec, policy),
			filepath.Join(dir, tuner.CheckpointFileName))
		if err != nil {
			return "", nil, err
		}
		defer s.Close()
		if err := core.New(opts).ResumeTune(s, f); err != nil {
			return "", nil, err
		}
		return summarizeRun(s, rec)
	}

	if cfg.ResumeOnly {
		report, _, err := resumeLeg()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "resumed the snapshot in the checkpoint directory:\n%s", report)
		return nil
	}

	// Golden leg: the same session, never interrupted, no checkpointing.
	recG := telemetry.New()
	sG, err := tuner.NewSession(req(recG, nil))
	if err != nil {
		return err
	}
	if err := core.New(opts).Tune(sG); err != nil {
		sG.Close()
		return err
	}
	golden, goldenTrace, err := summarizeRun(sG, recG)
	sG.Close()
	if err != nil {
		return err
	}

	// Kill leg: identical run, checkpointing on, killed at the first wave
	// boundary past stopAfter. Everything in memory is then abandoned —
	// only the snapshot file survives.
	killPolicy := *policy
	killPolicy.StopAfterWaves = stopAfter
	sK, err := tuner.NewSession(req(telemetry.New(), &killPolicy))
	if err != nil {
		return err
	}
	err = core.New(opts).Tune(sK)
	killedAt := sK.WaveCount()
	sK.Close()
	if !errors.Is(err, tuner.ErrStopRequested) {
		if err == nil {
			return fmt.Errorf("experiments: run finished before wave %d; nothing to resume", stopAfter)
		}
		return err
	}

	report, trace, err := resumeLeg()
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "golden run (uninterrupted):\n%s", golden)
	fmt.Fprintf(w, "killed at wave %d, resumed from its checkpoint:\n%s", killedAt, report)
	reportOK := report == golden
	traceOK := bytes.Equal(trace, goldenTrace)
	fmt.Fprintf(w, "final report identical:     %v\n", reportOK)
	fmt.Fprintf(w, "telemetry trace identical:  %v (%d bytes)\n", traceOK, len(goldenTrace))
	if !reportOK || !traceOK {
		if !traceOK {
			fmt.Fprintf(w, "trace diverges at byte %d of %d\n",
				diffAt(goldenTrace, trace), len(trace))
		}
		return fmt.Errorf("experiments: resumed run diverged from the uninterrupted run")
	}
	fmt.Fprintf(w, "resume identity: PASS\n")
	return nil
}

// summarizeRun deploys the best configuration and renders the run's final
// report plus its virtual-time telemetry trace — the two artifacts the
// determinism contract is checked against.
func summarizeRun(s *tuner.Session, rec *telemetry.Recorder) (string, []byte, error) {
	best, err := s.DeployBest()
	if err != nil {
		return "", nil, err
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "  waves %d  steps %d  elapsed %.2f h  pool %d  curve %d\n",
		s.WaveCount(), s.Steps(), s.Elapsed().Hours(), s.Pool.Len(), len(s.Curve()))
	fmt.Fprintf(&b, "  best fitness %.9f  throughput %.3f txn/s  p95 %.3f ms\n",
		s.Fitness(best.Perf), best.Perf.ThroughputTPS, best.Perf.P95LatencyMs)
	var trace bytes.Buffer
	if err := rec.WriteTraceVirtual(&trace); err != nil {
		return "", nil, err
	}
	return b.String(), trace.Bytes(), nil
}

// diffAt returns the first index where a and b differ.
func diffAt(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
