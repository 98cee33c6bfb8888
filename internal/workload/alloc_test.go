package workload

import (
	"testing"

	"github.com/hunter-cdb/hunter/internal/sim"
)

// Trace capture carves key sets from a shared arena instead of growing two
// slices per transaction. Before the arena a 1000-txn capture cost 6539
// allocations; with it the whole capture costs 4 (trace header, txn slice,
// Zipf state, one arena block). The guard leaves headroom for an extra
// arena block, not for a regression back to per-set allocation.
func TestCaptureProductionAllocs(t *testing.T) {
	r := sim.NewRNG(3)
	got := testing.AllocsPerRun(10, func() { CaptureProduction(r, "9am", 1000) })
	if got > 8 {
		t.Errorf("CaptureProduction(1000 txns) = %v allocs, want <= 8 (was 6539 before the arena)", got)
	}
}

// Profile generators run inside tuning sessions (clone construction, wave
// evaluation), so they must stay allocation-flat. Measured: TPCC 5,
// SysbenchRW/RO/WO 0 (fully stack-allocated mixes).
func TestProfileGeneratorAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		gen  func() *Profile
		max  float64
	}{
		{"TPCC", TPCC, 8},
		{"SysbenchRW", SysbenchRW, 4},
		{"SysbenchRO", SysbenchRO, 4},
		{"SysbenchWO", SysbenchWO, 4},
	} {
		got := testing.AllocsPerRun(10, func() { tc.gen() })
		if got > tc.max {
			t.Errorf("%s() = %v allocs, want <= %v", tc.name, got, tc.max)
		}
	}
}

// Trace capture must stay arena-backed: its allocations are per arena
// block, so they must not scale with trace length.
func TestProductionCaptureAllocsFlat(t *testing.T) {
	small := testing.AllocsPerRun(5, func() { CaptureProduction(sim.NewRNG(3), "9am", 500) })
	large := testing.AllocsPerRun(5, func() { CaptureProduction(sim.NewRNG(3), "9am", 4000) })
	// 8x the transactions may cost at most a few extra arena blocks.
	if large > small+8 {
		t.Errorf("capture allocs scale with trace length: %v @500 txns vs %v @4000", small, large)
	}
}

// Production() is the 5000-txn capture plus the DAG replay. Both the
// capture and the dependency-graph build are flat (see
// TestBuildDepGraphAllocs); what is left is one batch slice per replay
// level. Measured 112; it cost 14,488 with the map-based graph.
func TestProductionAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(5, func() { Production() }); got > 160 {
		t.Errorf("Production() = %v allocs, want <= 160", got)
	}
}
