// Command perfbench is the repository's benchmark. It runs one tuning
// workload in-process through the public entry points (hunter.Tune with a
// status sink, or the fleet scheduler), checks every result, and prints
// the end-to-end metrics; with -trace 1 it makes a separate traced run and
// prints the per-layer metrics instead. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload hybrid-production --seed 1 --seconds 20 --trace 0
//
// Load is a closed loop: one tuning call is outstanding at a time, and the
// fleet is one batch of tenants submitted at t=0.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metricDef is one reported metric. e2e metrics are printed by untraced
// runs, the rest by traced runs.
type metricDef struct {
	name, unit string
	e2e        bool
}

// metricDefs lists every run-level metric, in output order. Every run
// prints all of them as text; the e2e ones go into the untraced run's
// result object. The others go into the traced run's object with the
// per-layer metrics: a timing moves with the shared host's speed from one
// minute to the next by more than the benchmark's bound allows, and the
// rest spread too widely over seeds or read 0 on some workload (see
// README.md).
var metricDefs = []metricDef{
	{"setup_s", "s", true},
	{"best_fitness", "fitness", true},
	{"peak_rss_mb", "MB", true},
	{"tune_wall_s", "s", false},
	{"cpu_s", "s", false},
	{"wave_p50_ms", "ms", false},
	{"wave_tail_ms", "ms", false},
	{"tenant_p50_s", "s", false},
	{"tenant_tail_s", "s", false},
	{"tenants_per_s", "1/s", false},
	{"config_ms", "ms", false},
	{"config_cpu_ms", "ms", false},
	{"deployed_fitness", "fitness", false},
	{"rec_time_vh", "h", false},
	{"slo_hit_ratio", "ratio", false},
	{"virtual_h_per_tenant", "h", false},
	{"slo_violations", "count", false},
	{"fail_ratio", "ratio", false},
}

// runSettings are the harness inputs of one invocation.
type runSettings struct {
	seed int64
	// tiny shrinks every workload; only the benchmark's own tests set it.
	tiny    bool
	seconds time.Duration
	// dir holds checkpoints and other run files; it is removed at exit.
	dir string
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), " | "))
	seed := fs.Int64("seed", 1, "workload seed; every input of the workload derives from it")
	seconds := fs.Float64("seconds", 20, "how long to keep tuning new inputs once the workload's minimum calls are done")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	dir := fs.String("workdir", ".bench_build/perfbench-work", "directory for run files (checkpoints)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -trace 0|1 and -seconds > 0\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	runDir, err := os.MkdirTemp(*dir, w.name+"-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(runDir)
	rs := runSettings{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), dir: runDir}
	if err := bench(context.Background(), w, rs, *trace == 1, stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// bench runs one workload, untraced or traced, and prints its text lines
// and, last, the result object.
func bench(ctx context.Context, w workloadDef, rs runSettings, traced bool, stdout io.Writer) error {
	trace := 0
	if traced {
		trace = 1
	}
	fmt.Fprintf(stdout, "# perfbench %s seed=%d trace=%d %s\n", w.name, rs.seed, trace, hostLine())
	var (
		lines []string
		rep   report
		err   error
	)
	if traced {
		lines, rep, err = tracedRun(ctx, w, rs)
	} else {
		lines, rep, err = measuredRun(ctx, w, rs)
	}
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	if err != nil {
		return err
	}
	out, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(out))
	return nil
}

// hostLine records the toolchain and machine the numbers were taken on.
func hostLine() string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("go=%s gomaxprocs=%d nproc=%d cpu=%q commit=%s",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), commit)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// setupSamples is how many set-up timings are taken before each tuning
// call and after the last; setup_s is their median. Spreading them over
// the run keeps one busy moment of the host from setting the figure.
const setupSamples = 5

// minSetupBatch is the shortest a set-up sample may take; set-ups faster
// than this are repeated within one sample and averaged.
const minSetupBatch = 100 * time.Millisecond

// timeSetup measures building the workload's inputs and the set-up the
// tuning call starts with. It returns seconds per set-up and per input
// build, one entry per sample.
func timeSetup(ctx context.Context, w workloadDef, rs runSettings, samples int) (setup, build []float64, err error) {
	for len(setup) < samples {
		// Start every sample from a collected heap, so garbage left by the
		// previous sample is not charged to this one.
		runtime.GC()
		n := 0
		var buildDur time.Duration
		t0 := time.Now()
		for n == 0 || time.Since(t0) < minSetupBatch {
			b0 := time.Now()
			j, err := w.build(unitSeed(rs.seed, 0), rs.tiny)
			if err != nil {
				return nil, nil, fmt.Errorf("building %s inputs: %w", w.name, err)
			}
			buildDur += time.Since(b0)
			if err := j.setup(ctx); err != nil {
				return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
			}
			n++
		}
		setup = append(setup, time.Since(t0).Seconds()/float64(n))
		build = append(build, buildDur.Seconds()/float64(n))
	}
	return setup, build, nil
}

// unitSeed is the seed of a run's unit-th input: a run measures a
// sequence of distinct inputs, all derived from the run's seed.
func unitSeed(seed int64, unit int) int64 { return subSeed(seed, 1000+uint64(unit)) }

// tuneOnce builds the unit-th input of the workload and runs its tuning
// call in a fresh scratch directory.
func tuneOnce(ctx context.Context, w workloadDef, rs runSettings, unit int, env runEnv) (*outcome, error) {
	j, err := w.build(unitSeed(rs.seed, unit), rs.tiny)
	if err != nil {
		return nil, fmt.Errorf("building %s inputs: %w", w.name, err)
	}
	env.dir, err = newScratchDir(rs.dir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(env.dir)
	o, err := j.tune(ctx, env)
	if o != nil {
		o.unit = unit
	}
	return o, err
}

// measuredRun is the untraced run: set-up timings, then tuning calls on
// inputs derived from the seed, one after another: the workload's fixed
// minimum, then more distinct inputs for as long as another call still
// fits in the measuring time. Averaging over several inputs keeps the
// figures from hinging on one input's luck. On workloads marked repeat
// the last minimum call re-tunes the first input, and its digest must
// match.
func measuredRun(ctx context.Context, w workloadDef, rs runSettings) ([]string, report, error) {
	var setup []float64
	timeSetups := func() error {
		s, _, err := timeSetup(ctx, w, rs, setupSamples)
		setup = append(setup, s...)
		return err
	}
	minCalls := w.minCalls
	if rs.tiny {
		minCalls = min(minCalls, 2)
	}
	var outs []*outcome
	start := time.Now()
	for {
		if err := timeSetups(); err != nil {
			return nil, report{}, err
		}
		unit := len(outs)
		if w.repeat && unit == minCalls-1 {
			unit = 0
		}
		o, err := tuneOnce(ctx, w, rs, unit, runEnv{})
		if err != nil {
			return nil, report{}, err
		}
		outs = append(outs, o)
		spent := time.Since(start)
		if len(outs) >= minCalls && spent+spent/time.Duration(len(outs)) > rs.seconds {
			break
		}
	}
	if err := timeSetups(); err != nil {
		return nil, report{}, err
	}
	vals, lines := runMetrics(outs, setup, minCalls)
	rep := newReport(outs, vals, true)
	return append(lines, gateLines(outs)...), rep, nil
}

// runMetrics computes every run-level metric: timings are medians over
// the run's tuning calls; result quality is the mean over the distinct
// inputs among the first qualityCalls calls, so that it depends on the
// seed alone. It also renders them as text lines, tails with their
// percentile and sample count.
func runMetrics(outs []*outcome, setup []float64, qualityCalls int) (map[string]float64, []string) {
	per, quality := map[string][]float64{}, map[string][]float64{}
	var waveTail, tenantTail dist
	var terminal int
	var wall time.Duration
	counted := map[int]bool{}
	for i, o := range outs {
		terminal += o.terminal
		wall += o.wall
		sessions := o.log.sessions()
		waves := summarize(waveGapsMs(sessions))
		var walls []float64
		for _, s := range sessions {
			if a, b, ok := s.span(); ok {
				walls = append(walls, (b - a).Seconds())
			}
		}
		tenants := summarize(walls)
		waveTail, tenantTail = waves, tenants
		per["tune_wall_s"] = append(per["tune_wall_s"], o.wall.Seconds())
		per["cpu_s"] = append(per["cpu_s"], o.cpu.Seconds())
		per["wave_p50_ms"] = append(per["wave_p50_ms"], waves.P50)
		per["wave_tail_ms"] = append(per["wave_tail_ms"], waves.Tail)
		per["tenant_p50_s"] = append(per["tenant_p50_s"], tenants.P50)
		per["tenant_tail_s"] = append(per["tenant_tail_s"], tenants.Tail)
		if o.configs > 0 {
			per["config_ms"] = append(per["config_ms"], o.wall.Seconds()*1e3/float64(o.configs))
			per["config_cpu_ms"] = append(per["config_cpu_ms"], o.cpu.Seconds()*1e3/float64(o.configs))
		}
		if i >= qualityCalls || counted[o.unit] {
			continue
		}
		counted[o.unit] = true
		for k, v := range o.quality {
			quality[k] = append(quality[k], v)
		}
	}
	vals := map[string]float64{"tenants_per_s": float64(terminal) / wall.Seconds()}
	for k, xs := range per {
		vals[k] = median(xs)
	}
	for k, xs := range quality {
		vals[k] = mean(xs)
	}
	vals["setup_s"] = median(setup)
	vals["peak_rss_mb"] = peakRSSMB()
	attempted, failed := tally(outs)
	vals["fail_ratio"] = float64(failed) / float64(attempted)

	lines := []string{fmt.Sprintf("# %d tuning call(s) on %d input(s); timings are medians, result quality is the mean over %d input(s)", len(outs), distinctUnits(outs), len(counted))}
	for i, o := range outs {
		lines = append(lines, fmt.Sprintf("# call %d (input %d): wall %.3f s, cpu %.3f s, %d op(s), %d configs, fitness %.4g, digest %s",
			i, o.unit, o.wall.Seconds(), o.cpu.Seconds(), o.ops, o.configs, o.quality["best_fitness"], o.digest))
	}
	for _, d := range metricDefs {
		v, ok := vals[d.name]
		note := ""
		switch d.name {
		case "wave_tail_ms":
			note = fmt.Sprintf(" (p%g of %d wave gaps per call)", waveTail.TailPct, waveTail.N)
		case "tenant_tail_s":
			note = fmt.Sprintf(" (p%g of %d sessions per call)", tenantTail.TailPct, tenantTail.N)
		case "setup_s":
			note = fmt.Sprintf(" (median of %d set-ups)", len(setup))
		}
		if !ok {
			note = " (n/a for this workload)"
		}
		lines = append(lines, fmt.Sprintf("%-22s %14.6g %-8s%s", d.name, v, d.unit, note))
	}
	return vals, lines
}

func distinctUnits(outs []*outcome) int {
	units := map[int]bool{}
	for _, o := range outs {
		units[o.unit] = true
	}
	return len(units)
}

func tally(outs []*outcome) (attempted, failed int) {
	for _, o := range outs {
		attempted += o.ops
		failed += o.failed
	}
	// Results for one input must be identical across repeats; a repeat
	// that disagrees with the input's first call counts as failed.
	first := map[int]string{}
	for _, o := range outs {
		if d, ok := first[o.unit]; !ok {
			first[o.unit] = o.digest
		} else if o.digest != d {
			failed++
		}
	}
	return attempted, min(failed, attempted)
}

// gateLines renders the correctness gate's findings.
func gateLines(outs []*outcome) []string {
	var lines []string
	digests := map[string]bool{}
	first := map[int]string{}
	for _, o := range outs {
		digests[o.digest] = true
		for _, m := range o.misses {
			lines = append(lines, fmt.Sprintf("# check failed (input %d): %s", o.unit, m))
		}
		if d, ok := first[o.unit]; !ok {
			first[o.unit] = o.digest
		} else if o.digest != d {
			lines = append(lines, fmt.Sprintf("# check failed (input %d): digest %s differs from the same input's first %s", o.unit, o.digest, d))
		}
	}
	ds := make([]string, 0, len(digests))
	for d := range digests {
		ds = append(ds, d)
	}
	sort.Strings(ds)
	lines = append(lines, fmt.Sprintf("# result digest(s): %s", strings.Join(ds, " ")))
	return lines
}

// newReport builds the JSON line from the metric values, keeping the e2e
// or the per-layer definitions.
func newReport(outs []*outcome, vals map[string]float64, e2e bool) report {
	attempted, failed := tally(outs)
	rep := report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range allMetrics() {
		if d.e2e != e2e {
			continue
		}
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v, rep.Correct = 0, false
		}
		rep.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return rep
}

// allMetrics is every reported metric: run-level then per-layer.
func allMetrics() []metricDef { return append(append([]metricDef(nil), metricDefs...), layerDefs()...) }
