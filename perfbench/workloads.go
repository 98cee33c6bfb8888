package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/hunter-cdb/hunter"
	"github.com/hunter-cdb/hunter/internal/checkpoint"
	"github.com/hunter-cdb/hunter/internal/core"
	"github.com/hunter-cdb/hunter/internal/fleet"
	"github.com/hunter-cdb/hunter/internal/knob"
	"github.com/hunter-cdb/hunter/internal/simdb"
	"github.com/hunter-cdb/hunter/internal/tuner"
	"github.com/hunter-cdb/hunter/internal/workload"
)

// fleetTenants is the fleet-mixed tenant count: one batch submitted at t=0.
const fleetTenants = 48

// workloadDef is one benchmark workload: it turns a seed into a job whose
// inputs are fixed by that seed. tiny shrinks the inputs for the
// benchmark's own tests.
type workloadDef struct {
	name  string
	build func(seed int64, tiny bool) (job, error)
	// minCalls is how many tuning calls every untraced run makes; the
	// result-quality metrics average over the distinct inputs among them.
	minCalls int
	// repeat makes the last of the minimum calls re-tune the first input,
	// so that every untraced run checks that a repeated input gives the
	// same digest. Each workload's runs average quality over three
	// distinct inputs; a hybrid session takes about 15 s, too long to add
	// a fourth call for a repeat, so its traced run repeats its input
	// instead.
	repeat bool
}

var workloads = []workloadDef{
	{"hybrid-production", buildHybrid, 3, false},
	{"fleet-mixed", buildFleet, 4, true},
	{"guarded-tpcc-drift", buildGuarded, 4, true},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// job is one workload instance built from a seed.
type job interface {
	// setup performs the set-up the tuning call starts with (session
	// construction and default stress test, or fleet admission) and tears
	// it down again.
	setup(ctx context.Context) error
	// tune runs the tuning call once.
	tune(ctx context.Context, env runEnv) (*outcome, error)
}

// runEnv is what one tuning call gets from the harness.
type runEnv struct {
	// dir is a fresh scratch directory inside the checkout.
	dir string
	// traced attaches a telemetry recorder and exposes probe inputs.
	traced bool
	rec    *hunter.Recorder
	// ckptWrites counts checkpoint writes (traced runs).
	ckptWrites *logCounter
}

// outcome is one tuning call's measured and checked result.
type outcome struct {
	// unit is the index of the run input the call tuned.
	unit      int
	wall, cpu time.Duration
	log       *statusLog
	digest    string
	// ops and failed count operations (sessions, or fleet tenants) and
	// those that failed or missed a correctness check.
	ops, failed int
	misses      []string
	// terminal is the number of sessions/tenants that reached a terminal
	// state (tenants_per_s).
	terminal int
	// configs is the number of stress-tested configurations.
	configs int
	quality map[string]float64
	probe   probeInputs
}

// miss records a failed correctness check against one operation.
func (o *outcome) miss(format string, args ...any) {
	o.misses = append(o.misses, fmt.Sprintf(format, args...))
	if o.failed < o.ops {
		o.failed++
	}
}

// probeInputs is the run data the layer probes are fed with.
type probeInputs struct {
	dialects []simdb.Dialect
	// profiles[i] runs on dialects[i] at configs[i] (default and best).
	profiles []*workload.Profile
	configs  []knob.Config
	pool     []tuner.Sample
	fitness  []float64
	stateDim int
	actDim   int
	// snapshot is the run's final checkpoint file.
	snapshot []byte
	store    *fleet.SharedStore
	sigs     []string
}

// subSeed derives an independent seed for one input stream of a workload
// (splitmix64), so session, drift and fleet seeds never coincide.
func subSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// ---- single-session workloads ----

// sessionJob is one hunter.Tune request.
type sessionJob struct {
	req    hunter.Request
	drifts []hunter.DriftEvent
	// checkpoint enables a snapshot on every wave.
	checkpoint bool
}

func buildHybrid(seed int64, tiny bool) (job, error) {
	j := &sessionJob{req: hunter.Request{
		Dialect:  hunter.MySQL,
		Workload: hunter.Production(),
		Rules:    hunter.NewRules(),
		Budget:   24 * time.Hour,
		Clones:   4,
		Seed:     subSeed(seed, 1),
	}}
	if tiny {
		j.req.Budget, j.req.Clones = 2*time.Hour, 2
	}
	return j, nil
}

func buildGuarded(seed int64, tiny bool) (job, error) {
	j := &sessionJob{
		req: hunter.Request{
			Dialect:  hunter.MySQL,
			Workload: hunter.TPCC(),
			Rules:    hunter.NewRules(),
			Budget:   6 * time.Hour,
			Clones:   3,
			Seed:     subSeed(seed, 1),
			Safety:   &hunter.SafetyOptions{Guardrails: true},
			DriftStream: &hunter.DriftStream{
				Kind:   hunter.StreamDiurnal,
				Period: 6 * time.Hour,
				Events: 4,
				Seed:   subSeed(seed, 2),
			},
		},
		checkpoint: true,
	}
	if tiny {
		// The budget stays: a shorter session ends inside the sample
		// factory, which checkpoints once per GA generation rather than
		// per wave, so its final snapshot would miss the last waves and
		// fail the snapshot-wave check. DDPG exploration, where the full
		// workload ends, checkpoints after every wave.
		j.req.DriftStream.Events = 2
	}
	var err error
	j.drifts, err = hunter.GenerateDriftStream(j.req.Workload, *j.req.DriftStream)
	return j, err
}

// sessionRequest lowers a public request the way hunter.Tune does.
func sessionRequest(req hunter.Request) tuner.Request {
	return tuner.Request{
		Dialect:    req.Dialect,
		Type:       req.Type,
		Workload:   req.Workload,
		KnobNames:  req.Knobs,
		Rules:      req.Rules,
		Budget:     req.Budget,
		Clones:     req.Clones,
		Seed:       req.Seed,
		Logger:     req.Logger,
		Recorder:   req.Recorder,
		Status:     req.Status,
		Checkpoint: req.Checkpoint,
		Safety:     req.Safety,
	}
}

func (j *sessionJob) setup(ctx context.Context) error {
	s, err := tuner.NewSessionContext(ctx, sessionRequest(j.req))
	if err != nil {
		return err
	}
	defer s.Close()
	for _, ev := range j.drifts {
		if err := s.ScheduleDrift(ev.At, ev.Profile); err != nil {
			return err
		}
	}
	return nil
}

// tuneResult is the part of a tuning result the digest and the checks
// cover.
type tuneResult struct {
	Best        knob.Config
	BestPerf    simdb.Perf
	DefaultPerf simdb.Perf
	Fitness     float64
	// FoundFitness is the Eq. 1 fitness of the best configuration the
	// tuner found: the final point of the best-so-far curve, the score
	// RecTime reaches 98% of. In a guarded run Fitness is what the loop
	// left deployed, which a rollback can leave at the default.
	FoundFitness float64
	RecTime      time.Duration
	Elapsed      time.Duration
	Steps        int
	TopKnobs     []string
	StateDim     int
	SLOViolate   int
}

func (j *sessionJob) tune(ctx context.Context, env runEnv) (*outcome, error) {
	req := j.req
	log := newStatusLog()
	req.Status = log
	if j.checkpoint {
		req.Checkpoint = &hunter.CheckpointPolicy{Dir: env.dir, Every: 1}
	}
	var (
		r    tuneResult
		pool []tuner.Sample
		err  error
	)
	t0, c0 := time.Now(), cpuTime()
	log.start = t0
	if env.traced {
		req.Recorder = env.rec
		req.Logger = env.ckptWrites.logger()
		r, pool, err = tuneDirect(ctx, req)
	} else {
		var res *hunter.Result
		res, err = hunter.TuneContext(ctx, req)
		if err == nil {
			r = fromResult(res, req.Rules.EffectiveAlpha())
		}
	}
	o := &outcome{wall: time.Since(t0), cpu: cpuTime() - c0, log: log, ops: 1}
	if err != nil {
		o.failed = 1
		o.misses = append(o.misses, "tuning call: "+err.Error())
		return o, nil
	}
	o.terminal, o.configs = 1, r.Steps
	o.digest = digest(r)
	checkTuneResult(o, r, req)
	o.quality = map[string]float64{
		"best_fitness":     r.FoundFitness,
		"deployed_fitness": r.Fitness,
		"rec_time_vh":      r.RecTime.Hours(),
		"slo_violations":   float64(r.SLOViolate),
	}
	o.probe = probeInputs{
		stateDim: r.StateDim,
		actDim:   len(r.TopKnobs),
		pool:     pool,
	}
	rules := req.Rules
	for _, smp := range pool {
		o.probe.fitness = append(o.probe.fitness, smp.Perf.FitnessTail(r.DefaultPerf, rules.EffectiveAlpha(), rules.Tail99))
	}
	profiles := []*workload.Profile{req.Workload}
	for _, ev := range j.drifts {
		profiles = append(profiles, ev.Profile)
	}
	for _, p := range profiles {
		for _, cfg := range []knob.Config{nil, r.Best} {
			o.probe.dialects = append(o.probe.dialects, req.Dialect)
			o.probe.profiles = append(o.probe.profiles, p)
			o.probe.configs = append(o.probe.configs, cfg)
		}
	}
	if j.checkpoint {
		checkSnapshot(o, env.dir, log)
		if env.traced {
			o.probe.snapshot, err = os.ReadFile(filepath.Join(env.dir, hunter.CheckpointFileName))
			if err != nil {
				return nil, err
			}
		}
	}
	return o, nil
}

// fromResult keeps the checked part of a facade result; alpha is the
// session's fitness weight.
func fromResult(res *hunter.Result, alpha float64) tuneResult {
	r := tuneResult{
		Best:        res.Best,
		BestPerf:    res.BestPerf,
		DefaultPerf: res.DefaultPerf,
		Fitness:     res.Fitness,
		RecTime:     res.RecommendationTime,
		Elapsed:     res.Elapsed,
		Steps:       res.Steps,
		TopKnobs:    res.TopKnobs,
		StateDim:    res.CompressedStateDim,
	}
	if n := len(res.Curve); n > 0 {
		r.FoundFitness = res.Curve[n-1].Perf.Fitness(res.DefaultPerf, alpha)
	}
	if res.Safety != nil {
		r.SLOViolate = res.Safety.MonitorViolation
	}
	return r
}

// tuneDirect makes the calls hunter.Tune makes (session, drift schedule,
// core.Hunter, final deploy) so the traced run can read the session's
// pool afterwards. Its digest must equal the facade's at the same seed.
func tuneDirect(ctx context.Context, req hunter.Request) (tuneResult, []tuner.Sample, error) {
	s, err := tuner.NewSessionContext(ctx, sessionRequest(req))
	if err != nil {
		return tuneResult{}, nil, err
	}
	defer s.Close()
	if req.DriftStream != nil {
		events, err := hunter.GenerateDriftStream(req.Workload, *req.DriftStream)
		if err != nil {
			return tuneResult{}, nil, err
		}
		for _, ev := range events {
			if err := s.ScheduleDrift(ev.At, ev.Profile); err != nil {
				return tuneResult{}, nil, err
			}
		}
	}
	h := core.New(core.Options{})
	if err := h.Tune(s); err != nil {
		return tuneResult{}, nil, err
	}
	r := tuneResult{
		DefaultPerf: s.DefaultPerf,
		Elapsed:     s.Elapsed(),
		Steps:       s.Steps(),
		TopKnobs:    h.TopKnobs(),
		StateDim:    h.PCADim(),
	}
	r.RecTime, _ = s.Curve().RecommendationTime(s.DefaultPerf, s.Alpha, 0.98)
	if c := s.Curve(); len(c) > 0 {
		r.FoundFitness = c[len(c)-1].Perf.Fitness(s.DefaultPerf, s.Alpha)
	}
	if cfg, perf, fit, ok := s.OnlineDeployed(); ok {
		r.Best, r.BestPerf, r.Fitness = cfg, perf, fit
		r.SLOViolate = s.Safety().MonitorViolation
	} else {
		best, err := s.DeployBest()
		if err != nil {
			return tuneResult{}, nil, err
		}
		r.Best, r.BestPerf, r.Fitness = best.Knobs, best.Perf, s.Fitness(best.Perf)
	}
	return r, s.Pool.All(), nil
}

// ---- fleet ----

// fleetJob is one batch of synthetic tenants submitted at t=0.
type fleetJob struct {
	seed    int64
	tenants []fleet.TenantSpec
}

func buildFleet(seed int64, tiny bool) (job, error) {
	fs, n := subSeed(seed, 3), fleetTenants
	if tiny {
		n = 6
	}
	return &fleetJob{seed: fs, tenants: fleet.SyntheticTenants(n, fs)}, nil
}

func (j *fleetJob) config() fleet.Config {
	return fleet.Config{Tenants: j.tenants, Reuse: true, Seed: j.seed}
}

func (j *fleetJob) setup(context.Context) error {
	_, err := fleet.New(j.config())
	return err
}

func (j *fleetJob) tune(ctx context.Context, env runEnv) (*outcome, error) {
	cfg := j.config()
	log := newStatusLog()
	cfg.Status = log
	cfg.Recorder = env.rec
	f, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	t0, c0 := time.Now(), cpuTime()
	log.start = t0
	err = f.Run(ctx)
	o := &outcome{wall: time.Since(t0), cpu: cpuTime() - c0, log: log, ops: len(j.tenants)}
	if err != nil {
		o.failed = o.ops
		o.misses = append(o.misses, "fleet run: "+err.Error())
		return o, nil
	}
	r := f.Report()
	o.digest = digest(r)
	o.terminal = r.Done + r.Failed + r.Rejected + r.Evicted
	if o.terminal != len(j.tenants) {
		o.miss("fleet tally: done %d + failed %d + rejected %d + evicted %d != %d tenants",
			r.Done, r.Failed, r.Rejected, r.Evicted, len(j.tenants))
	}
	ran := 0
	for _, t := range r.TenantResults {
		o.configs += t.Steps
		switch t.Status {
		case fleet.StatusDone:
			ran++
			checkTenant(o, t)
		case fleet.StatusFailed:
			ran++
			o.miss("tenant %s failed: %s", t.Name, t.Err)
		default:
			o.miss("tenant %s %s", t.Name, t.Status)
		}
	}
	o.quality = map[string]float64{
		"best_fitness":     r.MeanFitness,
		"deployed_fitness": r.MeanFitness,
		"slo_hit_ratio":    float64(r.TargetsHit) / float64(len(j.tenants)),
		"fleet.rounds":     float64(r.Rounds),
	}
	if ran > 0 {
		o.quality["virtual_h_per_tenant"] = r.TotalVirtualSeconds / 3600 / float64(ran)
	}
	if r.Admitted > 0 {
		o.quality["fleet.reuse_hit_ratio"] = float64(r.ReuseHits) / float64(r.Admitted)
	}
	o.probe.store = f.Store()
	o.probe.sigs = f.Store().Signatures()
	o.probe.stateDim = fleetStateDim
	o.probe.actDim = fleetKnobCount
	seen := map[string]bool{}
	for _, t := range r.TenantResults {
		if t.Status != fleet.StatusDone || seen[t.Signature] {
			continue
		}
		seen[t.Signature] = true
		d := dialectOf(t.Signature)
		p, err := profileByName(t.Signature[strings.IndexByte(t.Signature, '/')+1:])
		if err != nil {
			return nil, err
		}
		for _, cfg := range []knob.Config{nil, t.BestKnobs} {
			o.probe.dialects = append(o.probe.dialects, d)
			o.probe.profiles = append(o.probe.profiles, p)
			o.probe.configs = append(o.probe.configs, cfg)
		}
	}
	o.quality["fleet.round_s"], o.quality["fleet.straggler_ratio"] = roundStats(log.sessions(), r.TenantResults)
	return o, nil
}

// roundStats splits tenant sessions into scheduling rounds (a round's
// sessions all start after the previous round's barrier) and returns the
// median round wall time and the largest slowest-over-median tenant wall
// time ratio of any round.
func roundStats(sessions []sessionTimeline, results []fleet.TenantResult) (roundS, straggler float64) {
	perRound := map[int]int{}
	rounds := 0
	for _, t := range results {
		if t.Status == fleet.StatusDone || t.Status == fleet.StatusFailed {
			perRound[t.Round]++
			rounds = max(rounds, t.Round+1)
		}
	}
	type span struct{ start, end time.Duration }
	var spans []span
	for _, s := range sessions {
		if a, b, ok := s.span(); ok {
			spans = append(spans, span{a, b})
		}
	}
	sort.Slice(spans, func(a, b int) bool { return spans[a].start < spans[b].start })
	var roundWalls []float64
	next := 0
	for r := 0; r < rounds; r++ {
		n := perRound[r]
		if n == 0 || next+n > len(spans) {
			break
		}
		group := spans[next : next+n]
		next += n
		first, last := group[0].start, group[0].end
		var walls []float64
		for _, sp := range group {
			first, last = min(first, sp.start), max(last, sp.end)
			walls = append(walls, (sp.end - sp.start).Seconds())
		}
		roundWalls = append(roundWalls, (last - first).Seconds())
		if m := median(walls); m > 0 {
			slowest := 0.0
			for _, w := range walls {
				slowest = max(slowest, w)
			}
			straggler = max(straggler, slowest/m)
		}
	}
	return median(roundWalls), straggler
}

// ---- correctness gate ----

// digest is a deterministic fingerprint of a result.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

func perfFinite(p simdb.Perf) bool {
	return finite(p.ThroughputTPS, p.AvgLatencyMs, p.P95LatencyMs, p.P99LatencyMs)
}

// checkTuneResult checks one tuning result: finite numbers, knobs inside
// the catalog's ranges, and Fitness recomputed from BestPerf and
// DefaultPerf.
func checkTuneResult(o *outcome, r tuneResult, req hunter.Request) {
	if !perfFinite(r.BestPerf) || !perfFinite(r.DefaultPerf) || !finite(r.Fitness, r.FoundFitness) {
		o.miss("non-finite result: best %+v default %+v fitness %v", r.BestPerf, r.DefaultPerf, r.Fitness)
	}
	if r.BestPerf.Failed {
		o.miss("recommended configuration does not boot")
	}
	checkKnobs(o, req.Dialect, r.Best)
	want := r.BestPerf.FitnessTail(r.DefaultPerf, req.Rules.EffectiveAlpha(), req.Rules.Tail99)
	if want != r.Fitness {
		o.miss("fitness %v does not recompute from BestPerf/DefaultPerf (%v)", r.Fitness, want)
	}
}

func checkTenant(o *outcome, t fleet.TenantResult) {
	if !finite(t.Fitness, t.BestTPS, t.DefaultTPS, t.Target) {
		o.miss("tenant %s: non-finite result", t.Name)
	}
	checkKnobs(o, dialectOf(t.Signature), t.BestKnobs)
}

func checkKnobs(o *outcome, d simdb.Dialect, cfg knob.Config) {
	if len(cfg) == 0 {
		o.miss("empty recommended configuration")
		return
	}
	cat := knob.MySQL()
	if d == simdb.Postgres {
		cat = knob.Postgres()
	}
	names := make([]string, 0, len(cfg))
	for name := range cfg {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := cfg[name]
		spec, ok := cat.Spec(name)
		switch {
		case !ok:
			o.miss("knob %s is not in the %s catalog", name, d)
		case !finite(v) || v < spec.Min || v > spec.Max:
			o.miss("knob %s = %v outside [%v, %v]", name, v, spec.Min, spec.Max)
		}
	}
}

// checkSnapshot checks the run's last checkpoint: it must decode, and its
// wave must be the session's final wave.
func checkSnapshot(o *outcome, dir string, log *statusLog) {
	if _, err := checkpoint.ReadFile(filepath.Join(dir, hunter.CheckpointFileName)); err != nil {
		o.miss("checkpoint does not decode: %v", err)
		return
	}
	wave, _, err := hunter.PeekCheckpoint(dir)
	if err != nil {
		o.miss("PeekCheckpoint: %v", err)
		return
	}
	sessions := log.sessions()
	if len(sessions) != 1 {
		o.miss("expected one session in the status log, got %d", len(sessions))
		return
	}
	if final := sessions[0].finalWave(); wave != final {
		o.miss("checkpoint wave %d != final wave %d", wave, final)
	}
}

func dialectOf(signature string) simdb.Dialect {
	if strings.HasPrefix(signature, simdb.Postgres.String()+"/") {
		return simdb.Postgres
	}
	return simdb.MySQL
}

// profileByName instantiates a fleet workload family.
func profileByName(name string) (*workload.Profile, error) {
	switch name {
	case "tpcc":
		return workload.TPCC(), nil
	case "oltp_read_only":
		return workload.SysbenchRO(), nil
	case "oltp_write_only":
		return workload.SysbenchWO(), nil
	case "oltp_read_write":
		return workload.SysbenchRW(), nil
	}
	return nil, fmt.Errorf("unknown workload family %q", name)
}

// newScratchDir makes a fresh directory under base.
func newScratchDir(base string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}
