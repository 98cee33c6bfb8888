package simdb

import (
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

// TestLockSimMatchesMapReference plays random batches through one reused
// lockSim and through the map-based reference, and requires the same
// (conflicted, deadlocks) for every batch. Small key spaces and unsorted
// write sets force wait cycles; the batch sizes vary so reset both grows
// and shrinks the reused table.
func TestLockSimMatchesMapReference(t *testing.T) {
	r := sim.NewRNG(17)
	var s lockSim
	var waits, cycles int
	for b := 0; b < 3000; b++ {
		n := 1 + r.Intn(64)
		keySpace := int64(1 + r.Intn(40))
		if b%5 == 0 {
			keySpace = 1 << 40 // sparse: tests the table past its first probe
		}
		ws := make([][]uint64, n)
		for i := range ws {
			ws[i] = make([]uint64, r.Intn(8))
			for j := range ws[i] {
				ws[i][j] = uint64(r.Int63n(keySpace)) * 0x10001
			}
			if r.Float64() < 0.5 {
				sortUint64(ws[i])
			}
		}
		// Crossing pairs close a two-transaction cycle in the first rounds.
		if n >= 2 && b%3 == 0 {
			ws[0], ws[1] = []uint64{7, 9}, []uint64{9, 7}
		}
		gotC, gotD := s.run(ws)
		wantC, wantD := refRun(ws)
		if gotC != wantC || gotD != wantD {
			t.Fatalf("batch %d (%d txns, %d keys): got (%d, %d), reference (%d, %d)",
				b, n, keySpace, gotC, gotD, wantC, wantD)
		}
		waits += gotC
		cycles += gotD
	}
	if waits == 0 || cycles < 100 {
		t.Fatalf("batches too tame to test the tables: %d waits, %d deadlocks", waits, cycles)
	}
}
