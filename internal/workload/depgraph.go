package workload

// The transaction dependency graph of §2.1 (Figure 3). Replaying a
// captured trace strictly in arrival order is reliable but serial; instead
// HUNTER builds a DAG whose edges are the conflicts between transactions
// (a later transaction that reads or writes a key written by an earlier
// one must wait for it) and replays any transaction whose parents have all
// committed, recovering the trace's inherent concurrency.

import "github.com/hunter-cdb/hunter/internal/sim"

// DepGraph is the conflict DAG over a trace. Nodes are transaction indices
// in arrival order; every edge points from an earlier transaction to a
// later dependent one, so the graph is acyclic by construction. Children
// are stored in compressed sparse rows: the children of i are
// child[childOff[i]:childOff[i+1]], in ascending order.
type DepGraph struct {
	n        int
	childOff []int
	child    []int
	parents  []int // in-degree
	levels   []int // longest-path depth of each node
}

// BuildDepGraph constructs the dependency graph of a trace in O(total
// operations) using last-writer / readers-since-write tracking per key:
//
//   - a read of key k depends on the latest write of k;
//   - a write of key k depends on the latest write of k and on every read
//     of k since that write (write-read, read-write and write-write
//     conflicts, as in the paper's example).
//
// Keys are interned into dense slots through one open-addressed table
// sized from the trace, and every per-key and per-edge list lives in a
// flat array, so the build costs a fixed handful of allocations however
// long the trace is.
func BuildDepGraph(t *Trace) *DepGraph {
	n := len(t.Txns)
	var reads, writes, widest int
	for _, tx := range t.Txns {
		reads += len(tx.ReadSet)
		writes += len(tx.WriteSet)
		widest = max(widest, len(tx.ReadSet)+len(tx.WriteSet))
	}
	ops := reads + writes
	var keys sim.KeyTable
	keys.Reset(ops)
	// Per key slot: the latest writer, and the head of the list of reads
	// since that write (-1: none). Slots are numbered in first-seen order.
	perKey := make([]int32, 2*ops)
	lastWriter, readHead := perKey[:ops], perKey[ops:]
	nkeys := int32(0)
	slotOf := func(k uint64) int32 {
		s, seen := keys.GetOrPut(k, nkeys)
		if !seen {
			lastWriter[s], readHead[s] = -1, -1
			nkeys++
		}
		return s
	}
	// The read lists: node m records reader readTxn[m] and links to the
	// key's previous reader readNext[m].
	readNodes := make([]int32, 2*reads)
	readTxn, readNext := readNodes[:reads], readNodes[reads:]
	nodes := int32(0)
	slotBuf := make([]int32, widest)
	// stamp[p] == i+1 marks p as already a parent of transaction i.
	stamp := make([]int32, n)
	// The parents of every transaction, transaction by transaction. Each
	// read adds at most one edge and each write at most one plus the reads
	// it consumes, so 2·reads+writes bounds the total.
	edges := make([]int32, 0, 2*reads+writes)

	g := &DepGraph{n: n, parents: make([]int, n), levels: make([]int, n)}
	var mark int32
	level := 0
	addEdge := func(p int32) {
		if stamp[p] == mark {
			return
		}
		stamp[p] = mark
		edges = append(edges, p)
		level = max(level, g.levels[p]+1)
	}
	for i, tx := range t.Txns {
		slots := slotBuf[:0]
		for _, k := range tx.ReadSet {
			slots = append(slots, slotOf(k))
		}
		for _, k := range tx.WriteSet {
			slots = append(slots, slotOf(k))
		}
		readSlots, writeSlots := slots[:len(tx.ReadSet)], slots[len(tx.ReadSet):]
		mark, level = int32(i+1), 0
		before := len(edges)
		for _, s := range readSlots {
			if w := lastWriter[s]; w >= 0 {
				addEdge(w)
			}
		}
		for _, s := range writeSlots {
			if w := lastWriter[s]; w >= 0 {
				addEdge(w)
			}
			for m := readHead[s]; m >= 0; m = readNext[m] {
				addEdge(readTxn[m])
			}
		}
		g.parents[i] = len(edges) - before
		g.levels[i] = level
		// Update key bookkeeping after edges so self-conflicts within a
		// transaction do not create self-edges.
		for _, s := range writeSlots {
			lastWriter[s] = int32(i)
			readHead[s] = -1
		}
		for _, s := range readSlots {
			readTxn[nodes], readNext[nodes] = int32(i), readHead[s]
			readHead[s] = nodes
			nodes++
		}
	}

	// Children in CSR form: count each parent's children, turn the counts
	// into run starts, then place every child, advancing its parent's
	// start. Transactions are visited in arrival order, so each run comes
	// out ascending.
	g.childOff = make([]int, n+1)
	for _, p := range edges {
		g.childOff[p+1]++
	}
	for i := 1; i <= n; i++ {
		g.childOff[i] += g.childOff[i-1]
	}
	g.child = make([]int, len(edges))
	e := 0
	for i := 0; i < n; i++ {
		for _, p := range edges[e : e+g.parents[i]] {
			g.child[g.childOff[p]] = i
			g.childOff[p]++
		}
		e += g.parents[i]
	}
	// Each childOff[p] now ends p's run, which is where p+1's starts.
	copy(g.childOff[1:], g.childOff[:n])
	g.childOff[0] = 0
	return g
}

// Len returns the number of transactions in the graph.
func (g *DepGraph) Len() int { return g.n }

// Children returns the dependents of transaction i in ascending order (nil
// if it has none). The slice is read-only.
func (g *DepGraph) Children(i int) []int {
	lo, hi := g.childOff[i], g.childOff[i+1]
	if lo == hi {
		return nil
	}
	return g.child[lo:hi:hi]
}

// InDegree returns the number of parents of transaction i.
func (g *DepGraph) InDegree(i int) int { return g.parents[i] }

// Depth returns the longest dependency chain length (number of levels).
func (g *DepGraph) Depth() int {
	max := 0
	for _, l := range g.levels {
		if l+1 > max {
			max = l + 1
		}
	}
	return max
}

// Level returns the longest-path level of transaction i (roots are 0).
func (g *DepGraph) Level(i int) int { return g.levels[i] }

// AverageWidth returns the mean number of transactions per level — the
// concurrency a level-synchronous replay can sustain, which the engine
// uses as the trace's effective thread count.
func (g *DepGraph) AverageWidth() int {
	d := g.Depth()
	if d == 0 {
		return 1
	}
	w := g.n / d
	if w < 1 {
		w = 1
	}
	return w
}

// ReplayOrder returns a schedule of transaction batches: batch b contains
// every transaction whose parents are all in earlier batches, so all
// transactions within a batch may execute concurrently. The concatenation
// of batches is a topological order of the DAG.
func (g *DepGraph) ReplayOrder() [][]int {
	byLevel := make([][]int, g.Depth())
	for i := 0; i < g.n; i++ {
		byLevel[g.levels[i]] = append(byLevel[g.levels[i]], i)
	}
	return byLevel
}

// ArrivalOrderConcurrency reports the concurrency of the naive
// arrival-order replay the paper contrasts against: transactions replay
// strictly serially (concurrency 1) to preserve the original order.
func ArrivalOrderConcurrency() int { return 1 }
