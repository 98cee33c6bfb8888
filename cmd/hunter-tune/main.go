// Command hunter-tune runs one HUNTER tuning session against a simulated
// cloud database instance and prints the recommended configuration.
//
//	hunter-tune -db mysql -workload tpcc -budget 24h -clones 5
//	hunter-tune -workload sysbench-rw -fix innodb_adaptive_hash_index=0 \
//	    -range innodb_buffer_pool_size=1073741824:17179869184 -alpha 0.7
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/hunter-cdb/hunter"
	"github.com/hunter-cdb/hunter/internal/cli"
	"github.com/hunter-cdb/hunter/internal/simdb"
)

func main() {
	var (
		db       = flag.String("db", "mysql", "database dialect: mysql | postgres")
		wl       = flag.String("workload", "tpcc", "workload: tpcc | sysbench-ro | sysbench-wo | sysbench-rw | production")
		budget   = flag.Duration("budget", 24*time.Hour, "virtual tuning time budget")
		clones   = flag.Int("clones", 1, "number of cloned CDB instances")
		instance = flag.String("instance", "F", "instance type A..H")
		seed     = flag.Int64("seed", 1, "random seed")
		alpha    = flag.Float64("alpha", 0.5, "throughput/latency preference in [0,1]")
		outFile  = flag.String("out", "", "write the recommended configuration to this file (my.cnf / postgresql.conf syntax)")
		ckptDir  = flag.String("checkpoint-dir", "", "directory for durable run snapshots (enables checkpointing)")
		ckptEvry = flag.Int("checkpoint-every", 1, "stress waves between snapshots")
		resume   = flag.Bool("resume", false, "continue the run from the snapshot in -checkpoint-dir")
		stopAt   = flag.Int("stop-after-waves", 0, "checkpoint and stop after this many waves (interruption testing)")
		chProf   = flag.String("chaos-profile", "off", "fault-injection profile: off | mild | flaky | catastrophic")
		chSeed   = flag.Int64("chaos-seed", 1, "fault-plan seed (only meaningful with -chaos-profile)")
		compress = flag.Bool("compress", false, "evaluation cost collapse: compressed workload kernel + wave dedup + warm-state deltas")
		online   = flag.Bool("online", false, "deploy improving candidates to the serving instance during the run (naive online tuning)")
		guard    = flag.Bool("guardrails", false, "arm the online safety loop: canary gate, trust region, SLO monitor, automatic rollback (implies -online)")
		sloP99   = flag.Duration("slo-p99", 0, "p99 latency SLO ceiling for the deployed config, e.g. 80ms (0 = off)")
		sloTPS   = flag.Float64("slo-floor-tps", 0, "throughput SLO floor for the deployed config (0 = off)")
		gMargin  = flag.Float64("guard-margin", 0, "fraction below the rolling baseline a canary may sit before it is blocked (0 = default 0.05)")
		dStream  = flag.String("drift-stream", "", "continuous workload drift stream: "+strings.Join(hunter.DriftStreamKinds(), " | "))
		dPeriod  = flag.Duration("drift-period", 0, "drift stream period (default 12h)")
		dEvents  = flag.Int("drift-events", 0, "drift events per stream period (default 6)")
		dSeed    = flag.Int64("drift-seed", 0, "drift stream seed (default: -seed)")
		fixes    = cli.Repeated[cli.Assign]{Parse: cli.ParseAssign}
		ranges   = cli.Repeated[cli.Range]{Parse: cli.ParseRange}
		obs      cli.Observe
	)
	flag.Var(&fixes, "fix", "fix a knob: name=value (repeatable)")
	flag.Var(&ranges, "range", "restrict a knob: name=min:max (repeatable)")
	obs.Register(flag.CommandLine, cli.Verbose|cli.Trace|cli.Metrics|cli.Report|cli.Serve)
	flag.Parse()

	req := hunter.Request{
		Budget: *budget,
		Clones: *clones,
		Seed:   *seed,
	}
	var err error
	req.Dialect, err = cli.ParseDialect(*db)
	cli.Check(err)
	req.Workload, _, err = cli.Workload(*wl, *compress)
	cli.Check(err)
	if *compress {
		req.Eval = &hunter.EvalOptions{DedupWaves: true, WarmStateDeltas: true}
	}
	req.Type, err = hunter.InstanceTypeByName(*instance)
	cli.Check(err)
	if *ckptDir != "" || *stopAt > 0 {
		req.Checkpoint = &hunter.CheckpointPolicy{
			Dir:            *ckptDir,
			Every:          *ckptEvry,
			StopAfterWaves: *stopAt,
		}
	}
	if *resume && *ckptDir == "" {
		cli.Fatalf("-resume needs -checkpoint-dir")
	}
	profile, err := hunter.ChaosProfileByName(*chProf)
	cli.Check(err)
	if profile.Enabled() {
		req.Chaos = &hunter.ChaosPlan{Seed: *chSeed, Profile: profile}
	}
	// Any guardrail-shaped flag arms the full safety loop; -online alone
	// runs the naive deploy-as-you-go baseline without the guard. A set
	// flag arms it even when its value is bad (negative, NaN), so Validate
	// rejects the value instead of the run silently ignoring it.
	armed := *guard || *sloP99 != 0 || *sloTPS != 0 || *gMargin != 0
	if armed || *online {
		req.Safety = &hunter.SafetyOptions{
			Guardrails:  armed,
			Margin:      *gMargin,
			SLOP99Ms:    float64(*sloP99) / float64(time.Millisecond),
			SLOFloorTPS: *sloTPS,
		}
		cli.Check(req.Safety.Validate())
	}
	if *dStream != "" {
		streamSeed := *dSeed
		if streamSeed == 0 {
			streamSeed = *seed
		}
		req.DriftStream = &hunter.DriftStream{
			Kind:   *dStream,
			Period: *dPeriod,
			Events: *dEvents,
			Seed:   streamSeed,
		}
		_, err = hunter.GenerateDriftStream(req.Workload, *req.DriftStream)
		cli.Check(err)
	}
	req.Rules = hunter.NewRules().SetAlpha(*alpha)
	for _, f := range fixes.Values {
		req.Rules.Fix(f.Name, f.Value)
	}
	for _, r := range ranges.Values {
		req.Rules.Range(r.Name, r.Lo, r.Hi)
	}
	cli.Check(req.Rules.Validate(simdb.Catalog(req.Dialect)))

	obs.Open(false)
	req.Logger, req.Recorder, req.Status = obs.Logger, obs.Recorder, obs.Status
	cli.Check(obs.Serve())
	defer obs.Close()

	// Ctrl-C stops the run at the next stress-test boundary; the best
	// configuration found so far is still deployed and reported.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()

	var res *hunter.Result
	if *resume {
		wave, clock, err := hunter.PeekCheckpoint(*ckptDir)
		cli.Check(err)
		fmt.Printf("resuming %s / %s from wave %d (%.1f h on the clock)...\n",
			*db, req.Workload.Name, wave, clock.Hours())
		res, err = hunter.ResumeContext(ctx, req)
	} else {
		fmt.Printf("tuning %s / %s on type %s, budget %v, %d clone(s)...\n",
			*db, req.Workload.Name, req.Type.Name, *budget, *clones)
		res, err = hunter.TuneContext(ctx, req)
	}
	// Export telemetry before failing so a broken run still leaves a trace.
	cli.Check(obs.Export())
	if errors.Is(err, hunter.ErrStopRequested) {
		reportCheckpoint(os.Stdout, *ckptDir, "run stopped at the requested wave")
		return
	}
	if errors.Is(err, hunter.ErrFleetLost) {
		// Total fleet loss: the run degrades to the baseline configuration
		// instead of failing outright.
		fmt.Println("\nWARNING: entire clone fleet lost to faults — result falls back to the baseline configuration")
		err = nil
	}
	cli.Check(err)
	if ctx.Err() != nil && *ckptDir != "" {
		reportCheckpoint(os.Stderr, *ckptDir, "interrupted — partial result below")
	}

	fmt.Printf("\ndefault:     %8.0f txn/s  p95 %6.1f ms\n",
		res.DefaultPerf.ThroughputTPS, res.DefaultPerf.P95LatencyMs)
	fmt.Printf("recommended: %8.0f txn/s  p95 %6.1f ms  (fitness %.3f)\n",
		res.BestPerf.ThroughputTPS, res.BestPerf.P95LatencyMs, res.Fitness)
	fmt.Printf("steps: %d   recommendation time: %.1f h of %.1f h used\n",
		res.Steps, res.RecommendationTime.Hours(), res.Elapsed.Hours())
	fmt.Printf("compressed state: %d dims   key knobs: %d\n\n",
		res.CompressedStateDim, len(res.TopKnobs))
	if res.Resilience != nil {
		fmt.Print(res.Resilience.Summary(), "\n")
	}
	if res.Safety != nil {
		fmt.Print(res.Safety.Summary(), "\n")
	}

	if *outFile != "" {
		cli.Check(cli.WriteFile(*outFile, func(w io.Writer) error {
			return hunter.WriteConfigFile(w, req.Dialect, res.Best)
		}))
		fmt.Printf("full configuration written to %s\n\n", *outFile)
	}

	fmt.Println("recommended values for the sifted key knobs:")
	top := append([]string(nil), res.TopKnobs...)
	sort.Strings(top)
	for _, name := range top {
		fmt.Printf("  %-40s = %s\n", name, hunter.FormatKnob(req.Dialect, name, res.Best[name]))
	}
}

// reportCheckpoint prints where the run's durable snapshot lives and the
// exact command that continues it.
func reportCheckpoint(w io.Writer, dir, why string) {
	if dir == "" {
		fmt.Fprintf(w, "\n%s (no -checkpoint-dir, nothing saved)\n", why)
		return
	}
	wave, clock, err := hunter.PeekCheckpoint(dir)
	if err != nil {
		fmt.Fprintf(w, "\n%s; checkpoint unreadable: %v\n", why, err)
		return
	}
	fmt.Fprintf(w, "\n%s\ncheckpoint: %s  (wave %d, %.1f h on the virtual clock)\n",
		why, filepath.Join(dir, hunter.CheckpointFileName), wave, clock.Hours())
	fmt.Fprintf(w, "continue with:  %s -resume -checkpoint-dir %s  <same tuning flags>\n",
		os.Args[0], dir)
}
