package simdb

import (
	"math/bits"
	"slices"
	"testing"

	"github.com/hunter-cdb/hunter/internal/sim"
)

// refLockTable is the map-based lock table lockTable replaced, kept as the
// reference the key-table version must match batch for batch.
type refLockTable struct {
	owner     map[uint64]int
	held      [][]uint64
	waitFor   []int
	waited    []bool
	aborted   []bool
	deadlocks int
	nWaited   int
}

func newRefLockTable(n int) *refLockTable {
	lt := &refLockTable{owner: make(map[uint64]int), held: make([][]uint64, n),
		waitFor: make([]int, n), waited: make([]bool, n), aborted: make([]bool, n)}
	for i := range lt.waitFor {
		lt.waitFor[i] = -1
	}
	return lt
}

func (lt *refLockTable) acquire(txn int, key uint64) acquireResult {
	if lt.aborted[txn] {
		return lockDeadlock
	}
	holder, taken := lt.owner[key]
	if !taken || holder == txn {
		if !taken {
			lt.owner[key] = txn
			lt.held[txn] = append(lt.held[txn], key)
		}
		return lockGranted
	}
	if !lt.waited[txn] {
		lt.waited[txn] = true
		lt.nWaited++
	}
	node, hops := holder, 0
	for hops <= len(lt.waitFor)+1 {
		next := lt.waitFor[node]
		if next < 0 {
			break
		}
		if next == txn {
			lt.deadlocks++
			lt.aborted[txn] = true
			lt.release(txn)
			return lockDeadlock
		}
		node = next
		hops++
	}
	lt.waitFor[txn] = holder
	return lockBlocked
}

func (lt *refLockTable) release(txn int) {
	for _, k := range lt.held[txn] {
		if lt.owner[k] == txn {
			delete(lt.owner, k)
		}
	}
	lt.held[txn] = lt.held[txn][:0]
	lt.waitFor[txn] = -1
	for w, h := range lt.waitFor {
		if h == txn {
			lt.waitFor[w] = -1
		}
	}
}

// refRun is lockSim.run over the map-based table.
func refRun(writeSets [][]uint64) (conflicted, deadlocks int) {
	const holdRounds = 2
	n := len(writeSets)
	lt := newRefLockTable(n)
	progress, commitAt := make([]int, n), make([]int, n)
	blocked, done := make([]bool, n), make([]bool, n)
	maxKeys := 0
	for _, ws := range writeSets {
		maxKeys = max(maxKeys, len(ws))
	}
	roundCap := n*(holdRounds+1) + 2*maxKeys + 16
	remaining := n
	for round := 0; remaining > 0 && round < roundCap; round++ {
		remaining = 0
		for t := 0; t < n; t++ {
			if done[t] || lt.aborted[t] {
				continue
			}
			remaining++
			if progress[t] >= len(writeSets[t]) {
				if round >= commitAt[t] {
					lt.release(t)
					done[t] = true
				}
				continue
			}
			if blocked[t] {
				if o, held := lt.owner[writeSets[t][progress[t]]]; held && o != t {
					continue
				}
				blocked[t] = false
			}
			switch lt.acquire(t, writeSets[t][progress[t]]) {
			case lockGranted:
				progress[t]++
				if progress[t] >= len(writeSets[t]) {
					commitAt[t] = round + holdRounds
				}
			case lockBlocked:
				blocked[t] = true
			}
		}
	}
	return lt.nWaited, lt.deadlocks
}

// randomBatch draws a batch of up to maxTxns transactions over a key space
// that is mostly small (forcing waits and wait cycles) and sometimes
// sparse, with write sets of up to maxKeys keys, half of them sorted.
func randomBatch(r *sim.RNG, b, maxTxns, maxKeys int) [][]uint64 {
	n := 1 + r.Intn(maxTxns)
	keySpace := int64(1 + r.Intn(40))
	if b%5 == 0 {
		keySpace = 1 << 40 // sparse: tests the table past its first probe
	}
	ws := make([][]uint64, n)
	for i := range ws {
		ws[i] = make([]uint64, r.Intn(maxKeys+1))
		for j := range ws[i] {
			ws[i][j] = uint64(r.Int63n(keySpace)) * 0x10001
		}
		if r.Float64() < 0.5 {
			slices.Sort(ws[i])
		}
	}
	// Crossing pairs close a two-transaction cycle in the first rounds.
	if n >= 2 && b%3 == 0 {
		ws[0], ws[1] = []uint64{7, 9}, []uint64{9, 7}
	}
	return ws
}

// TestLockSimMatchesMapReference plays random batches through one reused
// lockSim and through the polling, map-based reference, and requires the
// same (conflicted, deadlocks) for every batch. Small key spaces and
// unsorted write sets force wait cycles; the batch sizes vary so reset
// both grows and shrinks the reused table. Most batches are small; a
// quarter reach the engine's 256-transaction cap, which spans several
// ready-set words, with write sets as long as delivery's.
func TestLockSimMatchesMapReference(t *testing.T) {
	r := sim.NewRNG(17)
	var s lockSim
	var waits, cycles, wide int
	for b := 0; b < 3000; b++ {
		maxTxns, maxKeys := 64, 7
		if b%4 == 3 {
			maxTxns, maxKeys = 256, 140
			if b%8 == 3 {
				maxKeys = 12
			}
		}
		ws := randomBatch(r, b, maxTxns, maxKeys)
		if len(ws) > 128 {
			wide++
		}
		gotC, gotD := s.run(ws)
		wantC, wantD := refRun(ws)
		if gotC != wantC || gotD != wantD {
			t.Fatalf("batch %d (%d txns): got (%d, %d), reference (%d, %d)",
				b, len(ws), gotC, gotD, wantC, wantD)
		}
		// The schedule count must match the bitsets, or a batch whose
		// transactions are all blocked would spin on to the round cap.
		scheduled := 0
		for _, w := range s.ready {
			scheduled += bits.OnesCount64(w)
		}
		if scheduled != s.pending {
			t.Fatalf("batch %d: %d transactions scheduled, pending count %d", b, scheduled, s.pending)
		}
		waits += gotC
		cycles += gotD
	}
	if waits == 0 || cycles < 100 || wide < 100 {
		t.Fatalf("batches too tame to test the tables: %d waits, %d deadlocks, %d batches over 128 txns",
			waits, cycles, wide)
	}
}

// FuzzLockSim checks lockSim against the polling reference on batches
// decoded from arbitrary bytes: each byte is a key from a 16-key space, a
// 0xff byte ends the current transaction's write set.
func FuzzLockSim(f *testing.F) {
	f.Add([]byte{1, 2, 0xff, 2, 1})
	f.Add([]byte{0, 1, 2, 0xff, 2, 1, 0xff, 1})
	f.Add([]byte{7, 7, 0xff, 7, 0xff, 7, 3, 0xff, 3, 7, 0xff, 0xff})
	var s lockSim
	f.Fuzz(func(t *testing.T, data []byte) {
		ws := [][]uint64{nil}
		for _, c := range data {
			if c == 0xff {
				if len(ws) == 256 {
					break
				}
				ws = append(ws, nil)
				continue
			}
			last := len(ws) - 1
			ws[last] = append(ws[last], uint64(c&15))
		}
		gotC, gotD := s.run(ws)
		wantC, wantD := refRun(ws)
		if gotC != wantC || gotD != wantD {
			t.Fatalf("%v: got (%d, %d), reference (%d, %d)", ws, gotC, gotD, wantC, wantD)
		}
	})
}

// TestLockSimMissesRaceLoserCycle pins a modelling fault both the
// simulator and the reference share. T2 holds K while T0 and T1 queue on
// it; T2's commit clears both wait edges, T0 wins K and T1 stays blocked
// on it with no edge. T0 then blocks on L, which T1 holds: a real
// deadlock, but the cycle T0 → T1 → T0 runs through T1's missing edge, so
// it is neither detected nor counted.
func TestLockSimMissesRaceLoserCycle(t *testing.T) {
	const x, k, l = 1, 2, 3
	ws := [][]uint64{{x, k, l}, {l, k}, {k}}
	if c, d := batchLockSim(ws); c != 2 || d != 0 {
		t.Fatalf("got (%d, %d), want the undetected deadlock's (2, 0)", c, d)
	}
	if c, d := refRun(ws); c != 2 || d != 0 {
		t.Fatalf("reference got (%d, %d), want (2, 0)", c, d)
	}
}
