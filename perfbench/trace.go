package main

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync/atomic"
	"time"

	"github.com/hunter-cdb/hunter/internal/checkpoint"
	"github.com/hunter-cdb/hunter/internal/cloud"
	"github.com/hunter-cdb/hunter/internal/knob"
	"github.com/hunter-cdb/hunter/internal/metrics"
	"github.com/hunter-cdb/hunter/internal/ml/ddpg"
	"github.com/hunter-cdb/hunter/internal/ml/pca"
	"github.com/hunter-cdb/hunter/internal/ml/rf"
	"github.com/hunter-cdb/hunter/internal/parallel"
	"github.com/hunter-cdb/hunter/internal/sim"
	"github.com/hunter-cdb/hunter/internal/simdb"
	"github.com/hunter-cdb/hunter/internal/telemetry"
)

// Fleet tenants tune a fixed 16-knob set per dialect with PCA off, so
// their agents see the full metric vector.
const (
	fleetKnobCount = 16
	fleetStateDim  = metrics.Count
)

// stepKinds are the virtual-clock step kinds reported per layer.
var stepKinds = []string{
	"stress_wave", "warmup_stress", "model_update", "canary_wave",
	"slo_probe", "online_deploy", "rollback_deploy", "drift_restress",
}

// layerDefs lists the per-layer metrics of the traced run.
func layerDefs() []metricDef {
	defs := []metricDef{
		{"core.sample_factory_s", "s", false},
		{"core.pca_fit_s", "s", false},
		{"core.rf_sift_s", "s", false},
		{"core.ddpg_warm_start_s", "s", false},
		{"core.ddpg_explore_s", "s", false},
		{"simdb.run_ms_p50", "ms", false},
		{"simdb.run_ms_tail", "ms", false},
		{"simdb.pool_hit_ratio", "ratio", false},
		{"simdb.row_lock_waits", "1/test", false},
		{"simdb.deadlocks", "1/test", false},
		{"ml.ddpg.train_step_us", "us", false},
		{"ml.rf.train_ms", "ms", false},
		{"ml.pca.fit_ms", "ms", false},
		{"parallel.fanouts", "count", false},
		{"parallel.inline_chunks", "count", false},
		{"parallel.busy_s", "s", false},
		{"parallel.idle_s", "s", false},
		{"checkpoint.writes", "count", false},
		{"checkpoint.bytes_per_write", "bytes", false},
		{"checkpoint.encode_ms", "ms", false},
		{"checkpoint.decode_ms", "ms", false},
		{"tuner.waves", "count", false},
		{"tuner.configs_evaluated", "count", false},
		{"tuner.canary_waves", "count", false},
		{"tuner.rollbacks", "count", false},
		{"tuner.guardrail_blocks", "count", false},
		{"cloud.clones_created", "count", false},
		{"cloud.restarts", "count", false},
		{"fleet.rounds", "count", false},
		{"fleet.reuse_hit_ratio", "ratio", false},
		{"fleet.round_s", "s", false},
		{"fleet.straggler_ratio", "ratio", false},
		{"fleet.store_probe_us", "us", false},
		{"workload.build_ms", "ms", false},
		{"runtime.alloc_mb", "MB", false},
		{"runtime.gc_cycles", "count", false},
		{"runtime.gc_pause_ms", "ms", false},
		{"telemetry.overhead_pct", "%", false},
	}
	for _, k := range stepKinds {
		defs = append(defs, metricDef{"tuner.vs." + k, "s", false})
	}
	for _, l := range selfLayers {
		defs = append(defs, metricDef{"cpu." + l, "%", false})
	}
	groups := make([]string, 0, len(inclLayers))
	for g := range inclLayers {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	for _, g := range groups {
		defs = append(defs, metricDef{"cpu." + g + ".incl", "%", false})
	}
	return defs
}

// logCounter is a slog handler that counts checkpoint writes, the only
// record of them the session leaves outside its own state.
type logCounter struct{ writes atomic.Int64 }

func (c *logCounter) logger() *slog.Logger { return slog.New(c) }

func (c *logCounter) Enabled(context.Context, slog.Level) bool { return true }
func (c *logCounter) Handle(_ context.Context, r slog.Record) error {
	if r.Message == "checkpoint written" {
		c.writes.Add(1)
	}
	return nil
}
func (c *logCounter) WithAttrs([]slog.Attr) slog.Handler { return c }
func (c *logCounter) WithGroup(string) slog.Handler      { return c }

// tracedRun makes one untraced tuning call (the overhead baseline and the
// source of the run-level values) and one traced call with a telemetry
// recorder, a CPU profile, parallel and memory statistics, then times
// probe calls into each layer fed with the traced call's data.
func tracedRun(ctx context.Context, w workloadDef, rs runSettings) ([]string, report, error) {
	setup, build, err := timeSetup(ctx, w, rs, 3)
	if err != nil {
		return nil, report{}, err
	}
	base, err := tuneOnce(ctx, w, rs, 0, runEnv{})
	if err != nil {
		return nil, report{}, err
	}

	rec := telemetry.New()
	ckpt := &logCounter{}
	var prof bytes.Buffer
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	ps0 := parallel.Stats()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, report{}, err
	}
	traced, err := tuneOnce(ctx, w, rs, 0, runEnv{traced: true, rec: rec, ckptWrites: ckpt})
	pprof.StopCPUProfile()
	if err != nil {
		return nil, report{}, err
	}
	ps1 := parallel.Stats()
	runtime.ReadMemStats(&ms1)

	vals, lines := runMetrics([]*outcome{base}, setup, 1)
	outs := []*outcome{base, traced}
	vals["workload.build_ms"] = median(build) * 1e3
	vals["telemetry.overhead_pct"] = (traced.wall.Seconds()/base.wall.Seconds() - 1) * 100
	vals["parallel.fanouts"] = float64(ps1.Fanouts - ps0.Fanouts)
	vals["parallel.inline_chunks"] = float64(ps1.InlineChunks - ps0.InlineChunks)
	vals["parallel.busy_s"] = float64(ps1.BusyNs-ps0.BusyNs) / 1e9
	vals["parallel.idle_s"] = max(float64((ps1.SpanNs-ps0.SpanNs)-(ps1.BusyNs-ps0.BusyNs))/1e9, 0)
	vals["runtime.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	vals["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	vals["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6

	for phase, s := range phaseSeconds(traced.log.sessions()) {
		if name := "core." + phase + "_s"; hasMetric(name) {
			vals[name] = s
		}
	}
	samples, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return nil, report{}, err
	}
	self, incl, total := layerShares(samples)
	sum := 0.0
	for l, v := range self {
		vals["cpu."+l] = v
		sum += v
	}
	for g, v := range incl {
		vals["cpu."+g+".incl"] = v
	}
	lines = append(lines, fmt.Sprintf("# cpu profile: %.2f s sampled, self shares sum to %.1f%%, telemetry overhead %+.1f%%",
		float64(total)/1e9, sum, vals["telemetry.overhead_pct"]))

	rep := rec.Report()
	counter := func(n string) float64 { return float64(rep.Counters[n]) }
	for _, n := range []string{"tuner.canary_waves", "tuner.rollbacks", "tuner.guardrail_blocks",
		"tuner.configs_evaluated", "cloud.clones_created", "cloud.restarts"} {
		vals[n] = counter(n)
	}
	vals["tuner.waves"] = counter("tuner.stress_waves")
	for _, s := range rep.Sessions {
		for _, k := range stepKinds {
			vals["tuner.vs."+k] += s.StepSeconds[k]
		}
	}
	vals["checkpoint.writes"] = float64(ckpt.writes.Load())

	probeLines, err := runProbes(traced, rep, vals)
	if err != nil {
		return nil, report{}, err
	}
	lines = append(lines, probeLines...)
	for _, d := range layerDefs() {
		lines = append(lines, fmt.Sprintf("%-26s %14.6g %s", d.name, vals[d.name], d.unit))
	}
	return append(lines, gateLines(outs)...), newReport(outs, vals, false), nil
}

func hasMetric(name string) bool {
	for _, d := range allMetrics() {
		if d.name == name {
			return true
		}
	}
	return false
}

// probe limits: each probe stops at its sample count or its time budget.
const probeBudget = 1500 * time.Millisecond

// timeProbe calls fn until n samples or the budget is spent and returns
// the per-call durations in the given unit.
func timeProbe(n int, unit time.Duration, fn func() error) (dist, error) {
	var xs []float64
	start := time.Now()
	for len(xs) < n && (len(xs) == 0 || time.Since(start) < probeBudget) {
		t0 := time.Now()
		if err := fn(); err != nil {
			return dist{}, err
		}
		xs = append(xs, float64(time.Since(t0))/float64(unit))
	}
	return summarize(xs), nil
}

func probeLine(name string, d dist, unit string) string {
	return fmt.Sprintf("# probe %-24s p50 %.4g %s, p%g %.4g %s, n=%d", name, d.P50, unit, d.TailPct, d.Tail, unit, d.N)
}

// runProbes times calls into each layer with the traced call's data: the
// stress test on every profile the workload used at its default and best
// configuration, a DDPG training step at the session's dimensions, RF
// training and PCA fitting on the session's pool, encoding and decoding
// the final checkpoint, and shared-store probes on the final store.
// Layers the workload has no data for report 0.
func runProbes(o *outcome, rep *telemetry.Report, vals map[string]float64) ([]string, error) {
	var lines []string
	in := o.probe

	// simdb: the run's own counters when its sessions carried the
	// recorder; fleet tenants do not, so there the probe engine's are used.
	probeRec := telemetry.New()
	typeF, err := cloud.TypeByName("F")
	if err != nil {
		return nil, err
	}
	res := typeF.Resources()
	var runs []float64
	for i, p := range in.profiles {
		eng, err := simdb.NewEngine(in.dialects[i], res, 1)
		if err != nil {
			return nil, err
		}
		eng.SetRecorder(probeRec)
		cfg := eng.Catalog().Defaults()
		for k, v := range in.configs[i] {
			cfg[k] = v
		}
		if err := eng.Configure(cfg); err != nil {
			o.miss("probe: configuration does not boot on %s: %v", p.Name, err)
			continue
		}
		if _, _, err := eng.Run(p); err != nil { // warms the buffer pool
			return nil, err
		}
		for k := 0; k < 5; k++ {
			t0 := time.Now()
			if _, _, err := eng.Run(p); err != nil {
				return nil, err
			}
			runs = append(runs, float64(time.Since(t0))/float64(time.Millisecond))
		}
	}
	sd := summarize(runs)
	vals["simdb.run_ms_p50"], vals["simdb.run_ms_tail"] = sd.P50, sd.Tail
	lines = append(lines, probeLine("simdb.Engine.Run", sd, "ms")+fmt.Sprintf(" (%d configurations x 5)", len(runs)/5))
	counters, src := rep.Counters, "run recorder"
	if counters["simdb.stress_tests"] == 0 {
		counters, src = probeRec.Report().Counters, "probe engines"
	}
	if tests := float64(counters["simdb.stress_tests"]); tests > 0 {
		hits, misses := float64(counters["simdb.bufferpool.hits"]), float64(counters["simdb.bufferpool.misses"])
		if hits+misses > 0 {
			vals["simdb.pool_hit_ratio"] = hits / (hits + misses)
		}
		vals["simdb.row_lock_waits"] = float64(counters["simdb.row_lock_waits"]) / tests
		vals["simdb.deadlocks"] = float64(counters["simdb.deadlocks"]) / tests
		lines = append(lines, fmt.Sprintf("# simdb counters from the %s over %.0f stress tests", src, tests))
	}

	// ml.ddpg: TrainStep cost depends on the dimensions and the batch, not
	// on the values, so the replay is filled with seeded transitions.
	if in.stateDim > 0 && in.actDim > 0 {
		agent, err := ddpg.New(ddpg.Config{StateDim: in.stateDim, ActionDim: in.actDim, Seed: 1})
		if err != nil {
			return nil, err
		}
		rng := sim.NewRNG(1)
		vec := func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = rng.Float64()
			}
			return v
		}
		for i := 0; i < 256; i++ {
			agent.Observe(ddpg.Transition{State: vec(in.stateDim), Action: vec(in.actDim), Reward: rng.Float64(), Next: vec(in.stateDim)})
		}
		d, err := timeProbe(300, time.Microsecond, func() error { agent.TrainStep(); return nil })
		if err != nil {
			return nil, err
		}
		vals["ml.ddpg.train_step_us"] = d.P50
		lines = append(lines, probeLine("ddpg.Agent.TrainStep", d, "us")+fmt.Sprintf(" (state %d, action %d)", in.stateDim, in.actDim))
	}

	// ml.rf and ml.pca on the session's pool, with the settings the space
	// optimizer uses.
	var x, rows [][]float64
	var y []float64
	for i, smp := range in.pool {
		if len(smp.State) == metrics.Count {
			x, y, rows = append(x, smp.Point), append(y, in.fitness[i]), append(rows, smp.State)
		}
	}
	if len(x) >= 8 {
		d, err := timeProbe(3, time.Millisecond, func() error {
			_, err := rf.Train(x, y, rf.Options{Trees: 200}, sim.NewRNG(1))
			return err
		})
		if err != nil {
			return nil, err
		}
		vals["ml.rf.train_ms"] = d.P50
		lines = append(lines, probeLine("rf.Train", d, "ms")+fmt.Sprintf(" (%d samples x %d knobs)", len(x), len(x[0])))
		d, err = timeProbe(20, time.Millisecond, func() error { _, err := pca.Fit(rows, 0.90, 0); return err })
		if err != nil {
			return nil, err
		}
		vals["ml.pca.fit_ms"] = d.P50
		lines = append(lines, probeLine("pca.Fit", d, "ms")+fmt.Sprintf(" (%d rows)", len(rows)))
	}

	// checkpoint: re-encode and decode the run's final snapshot.
	if data := in.snapshot; len(data) > 0 {
		vals["checkpoint.bytes_per_write"] = float64(len(data))
		f, err := checkpoint.Decode(data)
		if err != nil {
			return nil, err
		}
		dec, err := timeProbe(10, time.Millisecond, func() error { _, err := checkpoint.Decode(data); return err })
		if err != nil {
			return nil, err
		}
		enc, err := timeProbe(10, time.Millisecond, func() error {
			w := checkpoint.NewWriter()
			for _, name := range f.Names() {
				b, err := f.Bytes(name)
				if err != nil {
					return err
				}
				if err := w.AddBytes(name, b); err != nil {
					return err
				}
			}
			if !bytes.Equal(w.Encode(), data) {
				return fmt.Errorf("checkpoint re-encoding differs from the file")
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		vals["checkpoint.decode_ms"], vals["checkpoint.encode_ms"] = dec.P50, enc.P50
		lines = append(lines, probeLine("checkpoint.Decode", dec, "ms"), probeLine("checkpoint encode", enc, "ms"))
	}

	// fleet: probe the final shared store for every signature it holds.
	if in.store != nil && len(in.sigs) > 0 {
		i := 0
		d, err := timeProbe(2000, time.Microsecond, func() error {
			sig := in.sigs[i%len(in.sigs)]
			i++
			if _, ok := in.store.Probe(sig, fleetKnobs(dialectOf(sig)), fleetStateDim); !ok {
				return fmt.Errorf("store probe missed its own signature %s", sig)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		vals["fleet.store_probe_us"] = d.P50
		lines = append(lines, probeLine("fleet.SharedStore.Probe", d, "us"))
	}
	for _, k := range []string{"fleet.rounds", "fleet.reuse_hit_ratio", "fleet.round_s", "fleet.straggler_ratio"} {
		if v, ok := o.quality[k]; ok {
			vals[k] = v
		}
	}
	return lines, nil
}

// fleetKnobs is the fixed knob set fleet tenants tune: the first
// fleetKnobCount of the dialect's tuned-65 list.
func fleetKnobs(d simdb.Dialect) []string {
	all := knob.MySQLTuned65()
	if d == simdb.Postgres {
		all = knob.PostgresTuned65()
	}
	return all[:min(fleetKnobCount, len(all))]
}
