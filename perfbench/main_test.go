package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"github.com/hunter-cdb/hunter"
	"github.com/hunter-cdb/hunter/internal/parallel"
	"github.com/hunter-cdb/hunter/internal/simdb"
)

// runJSON runs one workload at a tiny size and decodes the last output
// line.
func runJSON(t *testing.T, w workloadDef, seed int64, traced bool) (report, string) {
	t.Helper()
	var out bytes.Buffer
	rs := runSettings{seed: seed, tiny: true, seconds: time.Millisecond, dir: t.TempDir()}
	if err := bench(context.Background(), w, rs, traced, &out); err != nil {
		t.Fatalf("%s traced=%v: %v", w.name, traced, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
	}
	return rep, out.String()
}

// TestEveryMetricPrints runs each workload at a tiny size, untraced and
// traced, and checks that every named metric prints with its unit.
func TestEveryMetricPrints(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				rep, out := runJSON(t, w, 3, trace == "1")
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", rep.Correct, rep.Attempted, rep.Failed, out)
				}
				want := 0
				for _, d := range allMetrics() {
					if d.e2e != (trace == "0") {
						continue
					}
					want++
					m, ok := rep.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %q", d.name, m, d.unit)
					}
					if !strings.Contains(out, d.name) {
						t.Errorf("metric %s missing from the text report", d.name)
					}
				}
				if len(rep.Metrics) != want {
					t.Errorf("got %d metrics, want %d", len(rep.Metrics), want)
				}
				if trace == "0" {
					if repeats := strings.Count(out, "(input 0)"); w.repeat && repeats != 2 {
						t.Errorf("untraced run tuned input 0 %d time(s), want a repeat", repeats)
					}
					for _, d := range allMetrics() {
						if d.e2e && rep.Metrics[d.name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", d.name, rep.Metrics[d.name].Value)
						}
					}
				}
			})
		}
	}
}

// TestDigestIndependentOfWorkers checks that the result digest at one
// worker equals the digest at nproc workers.
func TestDigestIndependentOfWorkers(t *testing.T) {
	defer parallel.SetWorkers(parallel.Workers())
	rs := runSettings{seed: 5, tiny: true, dir: t.TempDir()}
	for _, w := range workloads {
		var digests []string
		for _, n := range []int{1, runtime.NumCPU()} {
			parallel.SetWorkers(n)
			o, err := tuneOnce(context.Background(), w, rs, 0, runEnv{})
			if err != nil {
				t.Fatal(err)
			}
			if o.failed != 0 {
				t.Fatalf("%s at %d workers: %v", w.name, n, o.misses)
			}
			digests = append(digests, o.digest)
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: digest %s at 1 worker, %s at %d", w.name, digests[0], digests[1], runtime.NumCPU())
		}
	}
}

// TestInjectedBadResultCounts checks that a bad result and a digest that
// changes between repeats are counted in fail_ratio without aborting the
// other metrics.
func TestInjectedBadResultCounts(t *testing.T) {
	req := hunter.Request{Dialect: hunter.MySQL, Rules: hunter.NewRules()}
	good := tuneResult{
		Best:        hunter.Config{"innodb_buffer_pool_size": 1 << 30},
		BestPerf:    simdb.Perf{ThroughputTPS: 200, AvgLatencyMs: 5, P95LatencyMs: 10, P99LatencyMs: 20},
		DefaultPerf: simdb.Perf{ThroughputTPS: 100, AvgLatencyMs: 10, P95LatencyMs: 20, P99LatencyMs: 40},
	}
	good.Fitness = good.BestPerf.FitnessTail(good.DefaultPerf, req.Rules.EffectiveAlpha(), false)
	check := func(r tuneResult) *outcome {
		o := &outcome{ops: 1, log: newStatusLog(), wall: time.Second, digest: digest(r)}
		checkTuneResult(o, r, req)
		return o
	}
	if o := check(good); o.failed != 0 {
		t.Fatalf("good result flagged: %v", o.misses)
	}
	bad := []tuneResult{good, good, good}
	bad[0].Fitness = math.NaN()
	bad[1].Best = hunter.Config{"innodb_buffer_pool_size": -1}
	bad[2].Fitness += 0.5
	for i, r := range bad {
		if o := check(r); o.failed != 1 {
			t.Errorf("bad result %d: failed=%d misses=%v", i, o.failed, o.misses)
		}
	}

	outs := []*outcome{check(good), check(bad[1])}
	vals, _ := runMetrics(outs, []float64{0.01}, 1)
	if vals["fail_ratio"] != 1 {
		t.Errorf("fail_ratio = %v, want 1 (one bad result, one digest mismatch)", vals["fail_ratio"])
	}
	rep := newReport(outs, vals, true)
	if rep.Correct || rep.Failed != 2 || rep.Attempted != 2 {
		t.Errorf("report correct=%v failed=%d attempted=%d", rep.Correct, rep.Failed, rep.Attempted)
	}
	if vals["tune_wall_s"] != 1 || rep.Metrics["setup_s"].Value != 0.01 {
		t.Errorf("other metrics must still be reported: tune_wall_s %v, setup_s %+v", vals["tune_wall_s"], rep.Metrics["setup_s"])
	}
}

// TestBenchmarkFileMatches checks that BENCHMARK.json names the same
// workloads and metrics, with the same units, as the program reports.
func TestBenchmarkFileMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	type m struct {
		Name, Unit, Better string
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("workloads %s, program has %s", got, want)
	}
	listed := map[string]m{}
	for _, x := range spec.EndToEnd {
		listed[x.Name] = x
	}
	for _, x := range spec.PerLayer {
		if _, dup := listed[x.Name]; dup {
			t.Errorf("%s listed twice", x.Name)
		}
		listed[x.Name] = x
	}
	e2e := map[string]bool{}
	for _, x := range spec.EndToEnd {
		e2e[x.Name] = true
	}
	for _, d := range allMetrics() {
		x, ok := listed[d.name]
		switch {
		case !ok:
			t.Errorf("%s is reported but not listed", d.name)
		case x.Unit != d.unit:
			t.Errorf("%s: unit %q listed, %q reported", d.name, x.Unit, d.unit)
		case e2e[d.name] != d.e2e:
			t.Errorf("%s: end_to_end=%v listed, %v reported", d.name, e2e[d.name], d.e2e)
		}
		delete(listed, d.name)
	}
	for n := range listed {
		t.Errorf("%s is listed but not reported", n)
	}
}

func TestSummarizeTail(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	d := summarize(xs)
	// p95 is the highest level with 10 samples above it (191..200).
	if d.P50 != 100 || d.TailPct != 95 || d.Tail != 190 || d.N != 200 {
		t.Errorf("got %+v", d)
	}
	if d := summarize(xs[:5]); d.TailPct != 100 || d.Tail != 5 {
		t.Errorf("few samples: got %+v", d)
	}
}

// TestLayerShares profiles a busy loop and checks that the decoded
// profile attributes every sample, with self shares summing to 100%.
func TestLayerShares(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0.0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1e5; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 || x == 0 {
		t.Skip("no samples collected")
	}
	if samples[0].stack[0].fn == "" {
		t.Errorf("frames carry no function names: %+v", samples[0])
	}
	self, _, total := layerShares(samples)
	sum := 0.0
	for _, v := range self {
		sum += v
	}
	if total <= 0 || math.Abs(sum-100) > 1e-9 {
		t.Errorf("self shares sum to %v over %d ns", sum, total)
	}
	if self["other"] < 99 {
		t.Errorf("a loop in the benchmark itself belongs to other, got %v", self)
	}
	if got := frameLayer("github.com/hunter-cdb/hunter/internal/simdb.(*lockTable).acquire", "/x/internal/simdb/lockmgr.go"); got != "simdb.lock" {
		t.Errorf("lock manager frame -> %q", got)
	}
	if got := frameLayer("math/rand.(*Zipf).Uint64", "/go/src/math/rand/zipf.go"); got != "sim.zipf" {
		t.Errorf("zipf frame -> %q", got)
	}
}
