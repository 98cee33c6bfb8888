package simdb

import (
	"testing"

	"github.com/hunter-cdb/hunter/internal/knob"
	"github.com/hunter-cdb/hunter/internal/sim"
	"github.com/hunter-cdb/hunter/internal/workload"
)

// BenchmarkBufferPoolAccess measures raw LRU throughput (the inner loop of
// every stress test).
func BenchmarkBufferPoolAccess(b *testing.B) {
	pool := newBufferPool(4096, 37, true)
	z := sim.NewZipf(sim.NewRNG(1), 1.2, 65536)
	keys := make([]uint32, 8192)
	for i := range keys {
		keys[i] = uint32(z.Next())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.Access(keys[i%len(keys)], i%4 == 0, false)
	}
}

// BenchmarkBufferPoolMidpointVsPlain is the design-choice ablation from
// DESIGN.md: midpoint insertion vs a plain LRU under a scan-polluted
// stream. It reports the hit ratio each policy achieves as a metric.
func BenchmarkBufferPoolMidpointVsPlain(b *testing.B) {
	run := func(b *testing.B, oldPct float64, promote2nd bool) {
		var hit float64
		for i := 0; i < b.N; i++ {
			pool := newBufferPool(1024, oldPct, promote2nd)
			z := sim.NewZipf(sim.NewRNG(int64(i)), 1.3, 16384)
			for j := 0; j < 30000; j++ {
				if j%10 == 9 { // periodic short scans pollute the pool
					start := uint32(j * 37 % 16384)
					for k := uint32(0); k < 16; k++ {
						pool.Access(start+k, false, true)
					}
				} else {
					pool.Access(uint32(z.Next()), false, false)
				}
			}
			hit += pool.HitRatio()
		}
		b.ReportMetric(hit/float64(b.N), "hit-ratio")
	}
	b.Run("midpoint", func(b *testing.B) { run(b, 37, true) })
	b.Run("plain-lru", func(b *testing.B) { run(b, 95, false) })
}

// BenchmarkEngineRun measures one full stress test (the unit of every
// tuning step) per workload.
func BenchmarkEngineRun(b *testing.B) {
	for _, wl := range []struct {
		name string
		p    *workload.Profile
	}{
		{"tpcc", workload.TPCC()},
		{"sysbench-rw", workload.SysbenchRW()},
		{"production", workload.Production()},
	} {
		b.Run(wl.name, func(b *testing.B) {
			e, err := NewEngine(MySQL, referenceMySQL(), 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := e.Run(wl.p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLockSimRun measures the lock simulation alone on the batches
// one default-configuration TPC-C stress test plays.
func BenchmarkLockSimRun(b *testing.B) {
	e, err := NewEngine(MySQL, referenceMySQL(), 1)
	if err != nil {
		b.Fatal(err)
	}
	p := workload.TPCC()
	pl := e.planFor(p, e.shape(p))
	zRows := sim.NewZipfTable(p.Skew, uint64(p.Rows)).Sampler(e.rng)
	batch, n := e.lockBatchShape(p)
	batches := make([][][]uint64, n)
	for i := range batches {
		batches[i] = make([][]uint64, batch)
		e.drawWriteSets(p, pl, zRows, batches[i])
	}
	var s lockSim
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.run(batches[i%len(batches)])
	}
}

// BenchmarkEngineConfigure measures deployment cost including boot
// validation and pool rebuild.
func BenchmarkEngineConfigure(b *testing.B) {
	e, err := NewEngine(MySQL, referenceMySQL(), 2)
	if err != nil {
		b.Fatal(err)
	}
	cfgs := make([]knob.Config, 8)
	for i := range cfgs {
		c := knob.MySQL().Defaults()
		c["innodb_buffer_pool_size"] = float64(int64(1+i) << 30)
		cfgs[i] = c
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Configure(cfgs[i%len(cfgs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineRunProductionCompression is the per-step cost collapse:
// one stress test of the full 222-table production trace profile vs the
// compressed kernel (clustered mix + fractional measurement effort).
func BenchmarkEngineRunProductionCompression(b *testing.B) {
	full := workload.Production()
	kernel := workload.CompressProduction().Profile
	for _, wl := range []struct {
		name string
		p    *workload.Profile
	}{
		{"full", full},
		{"kernel", kernel},
	} {
		b.Run(wl.name, func(b *testing.B) {
			e, err := NewEngine(MySQL, referenceMySQL(), 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := e.Run(wl.p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineWarmDelta measures the Configure+Run cycle when
// consecutive configurations move only the buffer-pool shape: rebuild
// discards and re-warms the pool every time, delta resizes it in place.
func BenchmarkEngineWarmDelta(b *testing.B) {
	p := workload.TPCC()
	cfgs := make([]knob.Config, 4)
	for i := range cfgs {
		c := knob.MySQL().Defaults()
		c["innodb_buffer_pool_size"] = float64(int64(4+4*i) << 30)
		cfgs[i] = c
	}
	for _, mode := range []struct {
		name string
		on   bool
	}{
		{"rebuild", false},
		{"delta", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			e, err := NewEngine(MySQL, referenceMySQL(), 1)
			if err != nil {
				b.Fatal(err)
			}
			e.SetWarmDeltas(mode.on)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.Configure(cfgs[i%len(cfgs)]); err != nil {
					b.Fatal(err)
				}
				if _, _, err := e.Run(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
