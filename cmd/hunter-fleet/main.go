// Command hunter-fleet is the multi-tenant tuning fleet daemon: it runs N
// simulated tenant databases through budgeted HUNTER tuning sessions,
// sharing trained models across tenants with the same workload signature,
// and prints a deterministic fleet report.
//
//	hunter-fleet -tenants 1000 -workers 8
//	hunter-fleet -tenants 200 -reuse=false -report fleet.json
//	hunter-fleet -tenants 500 -checkpoint-dir ckpt -serve 127.0.0.1:8377
//
// The report on stdout is byte-identical for any -workers value and
// across kill-and-resume; wall-clock chatter goes to stderr.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"github.com/hunter-cdb/hunter/internal/cli"
	"github.com/hunter-cdb/hunter/internal/fleet"
	"github.com/hunter-cdb/hunter/internal/parallel"
)

func main() {
	var (
		tenants  = flag.Int("tenants", 100, "number of synthetic tenant databases")
		workers  = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		reuse    = flag.Bool("reuse", true, "share trained models across tenants")
		seed     = flag.Int64("seed", 1, "fleet seed (tenant workloads, budgets, SLO targets)")
		active   = flag.Int("max-active", 32, "tenant sessions per scheduling round")
		queue    = flag.Int("queue-depth", 0, "admission queue capacity (0 = admit all)")
		tBudget  = flag.Duration("tenant-budget", 0, "clamp each tenant's virtual budget (0 = as requested)")
		fBudget  = flag.Duration("fleet-budget", 0, "fleet-wide virtual-time pool; tenants beyond it are evicted (0 = unlimited)")
		ckptDir  = flag.String("checkpoint-dir", "", "directory for incremental fleet snapshots (enables checkpointing)")
		ckptEvry = flag.Int("checkpoint-every", 1, "rounds between snapshots")
		resume   = flag.Bool("resume", false, "continue the fleet from the snapshot in -checkpoint-dir")
		stopAt   = flag.Int("stop-after-rounds", 0, "checkpoint and stop after this many rounds (interruption testing)")
		report   = flag.String("report", "", "write the fleet report (JSON) to this file")
		obs      cli.Observe
	)
	obs.Register(flag.CommandLine, cli.Verbose|cli.Metrics|cli.Serve)
	flag.Parse()

	if *resume && *ckptDir == "" {
		cli.Fatalf("-resume needs -checkpoint-dir")
	}
	if *workers > 0 {
		parallel.SetWorkers(*workers)
	}
	obs.Open(false)
	cfg := fleet.Config{
		Tenants: fleet.SyntheticTenants(*tenants, *seed),
		Reuse:   *reuse,
		Seed:    *seed,
		Policy: fleet.Policy{
			MaxActive:          *active,
			QueueDepth:         *queue,
			MaxTenantBudget:    *tBudget,
			TotalVirtualBudget: *fBudget,
		},
		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptEvry,
		StopAfterRounds: *stopAt,
		Recorder:        obs.Recorder,
		Status:          obs.Status,
		Logger:          obs.Logger,
	}

	var f *fleet.Fleet
	var err error
	if *resume {
		f, err = fleet.Resume(cfg)
	} else {
		f, err = fleet.New(cfg)
	}
	cli.Check(err)
	cli.Check(obs.Serve())
	defer obs.Close()
	fmt.Fprintf(os.Stderr, "fleet: %d tenants, reuse=%v, max-active %d, workers %d\n",
		*tenants, *reuse, *active, parallel.Workers())

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()

	start := time.Now()
	runErr := f.Run(ctx)
	wall := time.Since(start)

	cli.Check(obs.Export())
	switch {
	case errors.Is(runErr, fleet.ErrStopRequested):
		fmt.Printf("fleet stopped at round %d after checkpoint\n", f.Rounds())
		fmt.Printf("checkpoint: %s\n", filepath.Join(*ckptDir, fleet.CheckpointFileName))
		fmt.Printf("continue with:  %s -resume -checkpoint-dir %s  <same fleet flags>\n", os.Args[0], *ckptDir)
		return
	case runErr != nil && ctx.Err() != nil:
		fmt.Fprintf(os.Stderr, "interrupted after %d rounds", f.Rounds())
		if *ckptDir != "" {
			fmt.Fprintf(os.Stderr, "; continue with -resume -checkpoint-dir %s", *ckptDir)
		}
		fmt.Fprintln(os.Stderr)
		return
	case runErr != nil:
		cli.Fatalf("%v", runErr)
	}

	r := f.Report()
	r.Render(os.Stdout)
	if *report != "" {
		cli.Check(r.WriteJSON(*report))
		fmt.Fprintf(os.Stderr, "fleet report written to %s\n", *report)
	}
	fmt.Fprintf(os.Stderr, "wall time %s (%.1f sessions/s)\n",
		wall.Round(time.Millisecond), float64(r.Done+r.Failed)/wall.Seconds())
}
