package workload

import (
	"reflect"
	"testing"

	"github.com/hunter-cdb/hunter/internal/sim"
)

// refGraph is the map-based dependency-graph builder BuildDepGraph
// replaced, kept as the reference its output must equal exactly.
type refGraph struct {
	children [][]int
	parents  []int
	levels   []int
}

func refBuildDepGraph(t *Trace) refGraph {
	n := len(t.Txns)
	g := refGraph{children: make([][]int, n), parents: make([]int, n), levels: make([]int, n)}
	lastWriter := make(map[uint64]int)
	readersSince := make(map[uint64][]int)
	addEdge := func(from, to int, seen map[int]bool) {
		if from == to || seen[from] {
			return
		}
		seen[from] = true
		g.children[from] = append(g.children[from], to)
		g.parents[to]++
	}
	for i, tx := range t.Txns {
		seen := make(map[int]bool)
		for _, k := range tx.ReadSet {
			if w, ok := lastWriter[k]; ok {
				addEdge(w, i, seen)
			}
		}
		for _, k := range tx.WriteSet {
			if w, ok := lastWriter[k]; ok {
				addEdge(w, i, seen)
			}
			for _, r := range readersSince[k] {
				addEdge(r, i, seen)
			}
		}
		for _, k := range tx.WriteSet {
			lastWriter[k] = i
			readersSince[k] = readersSince[k][:0]
		}
		for _, k := range tx.ReadSet {
			readersSince[k] = append(readersSince[k], i)
		}
		level := 0
		for p := range seen {
			if g.levels[p]+1 > level {
				level = g.levels[p] + 1
			}
		}
		g.levels[i] = level
	}
	return g
}

// view reads a graph back through its accessors into the reference form.
func view(g *DepGraph) refGraph {
	v := refGraph{children: make([][]int, g.Len()), parents: make([]int, g.Len()), levels: make([]int, g.Len())}
	for i := 0; i < g.Len(); i++ {
		v.children[i] = g.Children(i)
		v.parents[i] = g.InDegree(i)
		v.levels[i] = g.Level(i)
	}
	return v
}

// refReplayOrder is the append-grown ReplayOrder the graph used before.
func refReplayOrder(g refGraph) [][]int {
	depth := 0
	for _, l := range g.levels {
		depth = max(depth, l+1)
	}
	byLevel := make([][]int, depth)
	for i, l := range g.levels {
		byLevel[l] = append(byLevel[l], i)
	}
	return byLevel
}

func checkSameGraph(t *testing.T, name string, tr *Trace) {
	t.Helper()
	g := BuildDepGraph(tr)
	want := refBuildDepGraph(tr)
	if got := view(g); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: graph differs from the map-based reference", name)
	}
	if got, want := g.ReplayOrder(), refReplayOrder(want); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: replay order differs from the reference", name)
	}
}

// denseTrace draws every key from only keys values, so almost every
// transaction conflicts and keys repeat within one transaction's sets.
func denseTrace(r *sim.RNG, txns, keys int) *Trace {
	tr := &Trace{Txns: make([]TracedTxn, txns)}
	for i := range tr.Txns {
		tx := TracedTxn{ID: i, ReadSet: make([]uint64, r.Intn(6)), WriteSet: make([]uint64, r.Intn(5))}
		for j := range tx.ReadSet {
			tx.ReadSet[j] = uint64(r.Intn(keys))
		}
		for j := range tx.WriteSet {
			tx.WriteSet[j] = uint64(r.Intn(keys))
		}
		tr.Txns[i] = tx
	}
	return tr
}

// TestBuildDepGraphMatchesMapReference pins the flat builder to the
// map-based one on both production windows, random captures and dense
// traces over 30 keys.
func TestBuildDepGraphMatchesMapReference(t *testing.T) {
	checkSameGraph(t, "9am", CaptureProduction(sim.NewRNG(909), "9am", 5000))
	checkSameGraph(t, "9pm", CaptureProduction(sim.NewRNG(2121), "9pm", 5000))
	for seed := int64(0); seed < 40; seed++ {
		r := sim.NewRNG(seed)
		window := "9am"
		if seed%2 == 1 {
			window = "9pm"
		}
		checkSameGraph(t, "capture", CaptureProduction(r, window, 1+r.Intn(2000)))
		checkSameGraph(t, "dense", denseTrace(r, 1+r.Intn(400), 30))
	}
	checkSameGraph(t, "empty", &Trace{})
	checkSameGraph(t, "no keys", &Trace{Txns: make([]TracedTxn, 3)})
}

// The builder's allocations are fixed, not per transaction: the map-based
// builder cost 14,740 allocations on this trace.
func TestBuildDepGraphAllocs(t *testing.T) {
	tr := CaptureProduction(sim.NewRNG(1), "9am", 5000)
	if got := testing.AllocsPerRun(5, func() { BuildDepGraph(tr) }); got > 32 {
		t.Errorf("BuildDepGraph(5000 txns) = %v allocs, want <= 32 (was 14,740 with maps)", got)
	}
}
