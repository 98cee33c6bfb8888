// Package simdb implements the cloud database instance the tuning system
// stress-tests: a mechanistic simulation of an OLTP engine (MySQL 5.7 or
// PostgreSQL 12.4 dialect) whose performance responds to its configuration
// knobs through the same mechanisms the real knobs act on.
//
// A stress test measures buffer-pool behaviour against a real LRU with
// midpoint insertion, measures lock conflicts by sampling concurrent
// transaction batches from the workload's key distribution, and then
// assembles throughput and latency with a closed-system queueing model
// over the instance's CPU, disk and fsync resources. The result is a
// non-convex, interacting response surface over ~70 knobs: exactly the
// search problem HUNTER and its baselines face on a real cloud database —
// while one stress test costs milliseconds of wall-clock time.
package simdb

import (
	"fmt"
	"math"

	"github.com/hunter-cdb/hunter/internal/knob"
)

// Dialect selects the database flavour being simulated.
type Dialect int

const (
	// MySQL simulates MySQL 5.7 with InnoDB.
	MySQL Dialect = iota
	// Postgres simulates PostgreSQL 12.4.
	Postgres
)

func (d Dialect) String() string {
	switch d {
	case MySQL:
		return "mysql"
	case Postgres:
		return "postgresql"
	}
	return fmt.Sprintf("Dialect(%d)", int(d))
}

// Catalog returns the dialect's knob catalog.
func Catalog(d Dialect) *knob.Catalog {
	if d == Postgres {
		return knob.Postgres()
	}
	return knob.MySQL()
}

// PageSize is the storage page size the simulation uses (InnoDB default).
const PageSize = 16 * 1024

// Resources describes the hardware of one cloud database instance.
type Resources struct {
	Cores             int
	RAMBytes          int64
	DiskIOPS          float64
	DiskReadLatencyMs float64 // single page read
	FsyncLatencyMs    float64 // durable flush
	CoreSpeed         float64 // relative to the reference core (1.0)
}

// Validate checks the resource description.
func (r Resources) Validate() error {
	if r.Cores <= 0 || r.RAMBytes <= 0 || r.DiskIOPS <= 0 {
		return fmt.Errorf("simdb: non-positive resources %+v", r)
	}
	if r.CoreSpeed <= 0 {
		return fmt.Errorf("simdb: core speed must be positive")
	}
	return nil
}

// Perf is the measured performance of one stress test: the P of a sample
// (S, A, P). Throughput is transactions per second; display layers convert
// to txn/min for TPC-C as the paper's tables do.
type Perf struct {
	ThroughputTPS float64
	AvgLatencyMs  float64
	P95LatencyMs  float64
	P99LatencyMs  float64
	// Failed marks a configuration on which the instance could not boot;
	// per §2.1 the Actor scores it with throughput −1000 and infinite
	// latency.
	Failed bool
}

// FailedPerf is the sentinel performance for a configuration that cannot
// boot (§2.1: "we set its throughput to -1000 and latency to infinity").
func FailedPerf() Perf {
	return Perf{ThroughputTPS: -1000, AvgLatencyMs: math.Inf(1), P95LatencyMs: math.Inf(1), P99LatencyMs: math.Inf(1), Failed: true}
}

// TPM returns throughput in transactions per minute.
func (p Perf) TPM() float64 { return p.ThroughputTPS * 60 }

// Better reports whether p beats q under the paper's Eq. 1 fitness with
// the given α and the given default baseline.
func (p Perf) Better(q, def Perf, alpha float64) bool {
	return p.Fitness(def, alpha) > q.Fitness(def, alpha)
}

// Fitness evaluates Eq. 1 against the default-configuration baseline:
//
//	f = α·(Tcur−Tdef)/Tdef + (1−α)·(Ldef−Lcur)/Ldef
//
// with 95th-percentile latency. Failed configurations yield a large
// negative fitness.
func (p Perf) Fitness(def Perf, alpha float64) float64 {
	return p.FitnessTail(def, alpha, false)
}

// FitnessTail is Fitness with a selectable latency percentile: tail99
// switches the latency term to 99th-percentile latency, the
// sensitive-queries objective of §5.
func (p Perf) FitnessTail(def Perf, alpha float64, tail99 bool) float64 {
	if p.Failed || def.ThroughputTPS <= 0 {
		return -10
	}
	lCur, lDef := p.P95LatencyMs, def.P95LatencyMs
	if tail99 {
		lCur, lDef = p.P99LatencyMs, def.P99LatencyMs
	}
	t := (p.ThroughputTPS - def.ThroughputTPS) / def.ThroughputTPS
	l := (lDef - lCur) / lDef
	f := alpha*t + (1-alpha)*l
	if math.IsNaN(f) || f < -10 {
		return -10
	}
	return f
}
