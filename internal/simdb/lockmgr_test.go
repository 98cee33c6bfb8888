package simdb

import (
	"testing"
	"testing/quick"

	"github.com/hunter-cdb/hunter/internal/sim"
)

// acq is lockTable.acquire without the victim's waiter list.
func acq(lt *lockTable, txn int, key uint64) acquireResult {
	res, _ := lt.acquire(txn, key)
	return res
}

// TestLockReleaseDetachesWaiters checks that a release hands its waiter
// list to the caller once: a second release of the same transaction
// returns nothing and leaves the wait edge of a former waiter, now parked
// on another holder, in place.
func TestLockReleaseDetachesWaiters(t *testing.T) {
	lt := newLockTable(8)
	acq(lt, 1, 'A')
	if acq(lt, 2, 'A') != lockBlocked {
		t.Fatal("2 should block on 1")
	}
	if head := lt.commit(1); head != 2 || lt.nextWaiter[head] != -1 {
		t.Fatalf("commit(1) woke list %d, want just 2", head)
	}
	acq(lt, 3, 'A')
	if acq(lt, 2, 'A') != lockBlocked || lt.waitFor[2] != 3 {
		t.Fatalf("2 should now wait on 3, waits on %d", lt.waitFor[2])
	}
	if head := lt.commit(1); head != -1 {
		t.Fatalf("second commit(1) woke list %d, want none", head)
	}
	if lt.waitFor[2] != 3 {
		t.Fatalf("second commit(1) cleared 2's wait edge on 3 (now %d)", lt.waitFor[2])
	}
}

func TestLockAcquireGrantAndReentry(t *testing.T) {
	lt := newLockTable(8)
	if acq(lt, 1, 100) != lockGranted {
		t.Fatal("fresh lock should grant")
	}
	if acq(lt, 1, 100) != lockGranted {
		t.Fatal("re-acquiring an owned lock should grant")
	}
	if acq(lt, 2, 100) != lockBlocked {
		t.Fatal("conflicting request should block")
	}
	lt.commit(1)
	if acq(lt, 2, 100) != lockGranted {
		t.Fatal("released lock should grant to the waiter")
	}
}

func TestLockDeadlockTwoTxns(t *testing.T) {
	// Classic crossing: T1 holds A and wants B; T2 holds B and wants A.
	lt := newLockTable(8)
	if acq(lt, 1, 'A') != lockGranted || acq(lt, 2, 'B') != lockGranted {
		t.Fatal("setup grants failed")
	}
	if acq(lt, 1, 'B') != lockBlocked {
		t.Fatal("T1 should block on B")
	}
	if acq(lt, 2, 'A') != lockDeadlock {
		t.Fatal("T2's request closes the cycle: deadlock")
	}
	if _, dl := lt.stats(); dl != 1 {
		t.Fatalf("deadlocks = %d", dl)
	}
	// The victim's locks were released: T1 can now take B.
	if acq(lt, 1, 'B') != lockGranted {
		t.Fatal("victim's locks should be free")
	}
}

func TestLockDeadlockThreeCycle(t *testing.T) {
	lt := newLockTable(8)
	acq(lt, 1, 'A')
	acq(lt, 2, 'B')
	acq(lt, 3, 'C')
	if acq(lt, 1, 'B') != lockBlocked {
		t.Fatal("1→B should block")
	}
	if acq(lt, 2, 'C') != lockBlocked {
		t.Fatal("2→C should block")
	}
	if acq(lt, 3, 'A') != lockDeadlock {
		t.Fatal("3→A closes the 3-cycle")
	}
}

func TestLockNoFalseDeadlock(t *testing.T) {
	// A chain (1 waits on 2, 2 waits on 3) is not a cycle.
	lt := newLockTable(8)
	acq(lt, 3, 'C')
	acq(lt, 2, 'B')
	if acq(lt, 2, 'C') != lockBlocked {
		t.Fatal("2 should block on 3")
	}
	if acq(lt, 1, 'B') != lockBlocked {
		t.Fatal("1 should block on 2 (chain, not cycle)")
	}
	if _, dl := lt.stats(); dl != 0 {
		t.Fatalf("false deadlock: %d", dl)
	}
}

func TestBatchLockSimDisjointKeysNoConflict(t *testing.T) {
	ws := [][]uint64{{1, 2}, {3, 4}, {5, 6}}
	cf, dl := batchLockSim(ws)
	if cf != 0 || dl != 0 {
		t.Fatalf("disjoint write sets conflicted: %d/%d", cf, dl)
	}
}

func TestBatchLockSimHotKeyConflicts(t *testing.T) {
	// Everyone updates the same row: all but the first wait; no deadlock
	// (single-key ordering cannot cycle).
	ws := [][]uint64{{7}, {7}, {7}, {7}}
	cf, dl := batchLockSim(ws)
	if cf != 3 {
		t.Fatalf("conflicted = %d, want 3", cf)
	}
	if dl != 0 {
		t.Fatalf("single-key workload deadlocked: %d", dl)
	}
}

func TestBatchLockSimCrossingDeadlocks(t *testing.T) {
	// Two transactions acquiring {A,B} in opposite orders must produce a
	// deadlock under round-robin interleaving.
	ws := [][]uint64{{1, 2}, {2, 1}}
	cf, dl := batchLockSim(ws)
	if dl != 1 {
		t.Fatalf("deadlocks = %d, want 1 (conflicted %d)", dl, cf)
	}
}

// TestBatchLockSimTerminatesProperty: arbitrary write sets must terminate
// (every transaction either finishes or is aborted) with sane counters.
func TestBatchLockSimTerminatesProperty(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		rng := sim.NewRNG(seed)
		n := int(nRaw)%24 + 2
		keys := int(kRaw)%12 + 1
		ws := make([][]uint64, n)
		for i := range ws {
			m := rng.Intn(6)
			for j := 0; j < m; j++ {
				ws[i] = append(ws[i], uint64(rng.Intn(keys)))
			}
		}
		cf, dl := batchLockSim(ws)
		return cf >= 0 && cf <= n && dl >= 0 && dl <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchLockSimContentionScalesWithHotness(t *testing.T) {
	rng := sim.NewRNG(9)
	run := func(keySpace int64) float64 {
		var conflicted, total int
		for b := 0; b < 50; b++ {
			ws := make([][]uint64, 16)
			for i := range ws {
				ws[i] = []uint64{uint64(rng.Int63n(keySpace)), uint64(rng.Int63n(keySpace))}
			}
			cf, _ := batchLockSim(ws)
			conflicted += cf
			total += 16
		}
		return float64(conflicted) / float64(total)
	}
	hot := run(8)
	cold := run(1 << 30)
	if hot <= cold {
		t.Fatalf("hot key space should conflict more: hot=%.3f cold=%.3f", hot, cold)
	}
	if cold > 0.01 {
		t.Fatalf("huge key space should barely conflict: %.3f", cold)
	}
}
