package simdb

import (
	"math/bits"

	"github.com/hunter-cdb/hunter/internal/sim"
)

// lockTable is a row-lock manager with wait-for-graph deadlock detection,
// the mechanism behind the engine's lock-contention measurements. During a
// stress test the engine simulates batches of concurrent transactions
// acquiring exclusive row locks; a transaction that requests a held lock
// blocks behind the holder, and a cycle in the wait-for graph is a
// deadlock (InnoDB detects these immediately; PostgreSQL after
// deadlock_timeout).
type lockTable struct {
	owner   sim.KeyTable // key → owning transaction
	held    [][]uint64   // per-txn held keys
	waitFor []int        // blocked txn → txn it waits on (-1: none)
	waited  []bool       // txns that blocked at least once
	aborted []bool

	// Reverse wait index: intrusive singly linked lists of the
	// transactions parked on each holder, so a release finds its waiters
	// without scanning waitFor. -1 ends a list.
	waiterHead []int32
	nextWaiter []int32

	deadlocks int
	nWaited   int
}

func newLockTable(n int) *lockTable {
	lt := &lockTable{}
	lt.reset(n)
	return lt
}

// reset prepares the table for a fresh batch of n transactions, reusing
// the per-transaction slices and the owner table from earlier batches —
// the lock simulation runs dozens of batches per stress test, so the
// allocation churn of rebuilding the table dominated the measurement loop.
func (lt *lockTable) reset(n int) {
	lt.owner.Reset(4 * n)
	if cap(lt.held) < n {
		lt.held = make([][]uint64, n)
		lt.waitFor = make([]int, n)
		lt.waited = make([]bool, n)
		lt.aborted = make([]bool, n)
		lt.waiterHead = make([]int32, n)
		lt.nextWaiter = make([]int32, n)
	} else {
		lt.held = lt.held[:n]
		lt.waitFor = lt.waitFor[:n]
		lt.waited = lt.waited[:n]
		lt.aborted = lt.aborted[:n]
		lt.waiterHead = lt.waiterHead[:n]
		lt.nextWaiter = lt.nextWaiter[:n]
	}
	for i := 0; i < n; i++ {
		lt.held[i] = lt.held[i][:0]
		lt.waitFor[i] = -1
		lt.waited[i] = false
		lt.aborted[i] = false
		lt.waiterHead[i] = -1
	}
	lt.deadlocks, lt.nWaited = 0, 0
}

// acquireResult describes the outcome of one lock request.
type acquireResult int

const (
	lockGranted acquireResult = iota
	lockBlocked
	lockDeadlock // requester chosen as deadlock victim and aborted
)

// acquire requests an exclusive lock on key for txn. On conflict the
// transaction blocks behind the holder; if that wait would close a cycle
// in the wait-for graph, the requester is aborted as the deadlock victim:
// its locks are released and woken heads the list of transactions that
// were parked on it (see release), -1 otherwise.
func (lt *lockTable) acquire(txn int, key uint64) (res acquireResult, woken int32) {
	if lt.aborted[txn] {
		return lockDeadlock, -1
	}
	h, taken := lt.owner.GetOrPut(key, int32(txn))
	holder := int(h)
	if !taken || holder == txn {
		if !taken {
			lt.held[txn] = append(lt.held[txn], key)
		}
		return lockGranted, -1
	}
	// Would wait on holder: check for a cycle holder → … → txn.
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
			// Cycle: abort the requester (youngest-waiter victim policy).
			lt.deadlocks++
			return lockDeadlock, lt.abort(txn)
		}
		node = next
		hops++
	}
	lt.waitFor[txn] = holder
	lt.park(txn, holder)
	return lockBlocked, -1
}

// park files txn on holder's waiter list; holder's release wakes it.
func (lt *lockTable) park(txn, holder int) {
	lt.nextWaiter[txn] = lt.waiterHead[holder]
	lt.waiterHead[holder] = int32(txn)
}

// abort releases everything txn holds and removes it from the graph,
// returning its detached waiter list.
func (lt *lockTable) abort(txn int) int32 {
	lt.aborted[txn] = true
	return lt.release(txn)
}

// commit releases txn's locks at transaction end, returning its detached
// waiter list.
func (lt *lockTable) commit(txn int) int32 { return lt.release(txn) }

// release frees txn's keys, clears the wait edge of every transaction
// parked on it and detaches that waiter list, returning its head (-1 when
// empty) for the caller to wake. The nextWaiter links stay valid until a
// detached waiter parks again.
func (lt *lockTable) release(txn int) int32 {
	// txn owns every key it holds: a key is held only once granted, and
	// only its holder's release frees it.
	for _, k := range lt.held[txn] {
		lt.owner.Delete(k)
	}
	lt.held[txn] = lt.held[txn][:0]
	lt.waitFor[txn] = -1
	head := lt.waiterHead[txn]
	lt.waiterHead[txn] = -1
	for w := head; w >= 0; w = lt.nextWaiter[w] {
		lt.waitFor[w] = -1
	}
	return head
}

// stats summarizes a batch.
func (lt *lockTable) stats() (conflicted, deadlocks int) {
	return lt.nWaited, lt.deadlocks
}

// holdRounds is the execution time a transaction spends after its last
// lock grant before it commits, in rounds.
const holdRounds = 2

// lockSim is the reusable state of the batch lock simulation: one lock
// table plus the per-transaction progress scratch and the round schedule,
// reused across the many batches of a stress test and across stress
// tests.
type lockSim struct {
	lt       lockTable
	progress []int
	blocked  []bool

	// ready holds holdRounds+1 bitsets of words uint64s each: slot
	// round%(holdRounds+1) lists the transactions that act in that round.
	ready   []uint64
	words   int
	pending int // transactions scheduled in some slot
}

// prepare sizes the scratch for n transactions, zeroes it and schedules
// every transaction in round 0.
func (s *lockSim) prepare(n int) {
	s.lt.reset(n)
	if cap(s.progress) < n {
		s.progress = make([]int, n)
		s.blocked = make([]bool, n)
	} else {
		s.progress = s.progress[:n]
		s.blocked = s.blocked[:n]
	}
	for i := 0; i < n; i++ {
		s.progress[i] = 0
		s.blocked[i] = false
	}
	s.words = (n + 63) / 64
	size := (holdRounds + 1) * s.words
	if cap(s.ready) < size {
		s.ready = make([]uint64, size)
	}
	s.ready = s.ready[:size]
	clear(s.ready)
	s.pending = 0
	for t := 0; t < n; t++ {
		s.schedule(t, 0)
	}
}

// schedule makes txn act in the given round, at most holdRounds ahead.
func (s *lockSim) schedule(txn, round int) {
	slot := round % (holdRounds + 1)
	s.ready[slot*s.words+txn>>6] |= 1 << (txn & 63)
	s.pending++
}

// wake schedules the detached waiter list starting at head, released by
// txn at its turn in round: a waiter with a higher index still has its
// turn in this round, the others act in the next.
func (s *lockSim) wake(head int32, txn, round int) {
	for w := head; w >= 0; w = s.lt.nextWaiter[w] {
		if int(w) > txn {
			s.schedule(int(w), round)
		} else {
			s.schedule(int(w), round+1)
		}
	}
}

// batchLockSim plays one batch of concurrent transactions against a fresh
// lock table (convenience wrapper over lockSim for tests and one-shot
// callers).
func batchLockSim(writeSets [][]uint64) (conflicted, deadlocks int) {
	var s lockSim
	return s.run(writeSets)
}

// run plays one batch of concurrent transactions: in each round every
// live transaction, in index order, takes one step — it acquires its next
// write key (the interleaving of concurrent execution), holds everything
// until it finishes executing holdRounds rounds after its last grant
// (two-phase locking with a short post-acquisition execution phase), and
// a blocked transaction retries after the holder commits. It returns how
// many transactions ever waited and how many deadlocked.
//
// Only transactions whose step can change state are visited: one still
// acquiring acts every round, one executing acts in its commit round, and
// a blocked one acts after its holder releases — at its own turn, by when
// a transaction between them may have taken the key again, in which case
// it parks on the new holder. The batch ends when no transaction is
// scheduled, since every live one is then blocked for good.
func (s *lockSim) run(writeSets [][]uint64) (conflicted, deadlocks int) {
	n := len(writeSets)
	s.prepare(n)
	lt := &s.lt
	progress := s.progress
	blocked := s.blocked
	maxKeys := 0
	for _, ws := range writeSets {
		if len(ws) > maxKeys {
			maxKeys = len(ws)
		}
	}
	// Worst case is full serialization on one hot key: n·(holdRounds+1)
	// rounds; beyond that something is livelocked and we cut off.
	roundCap := n*(holdRounds+1) + 2*maxKeys + 16
	for round := 0; s.pending > 0 && round < roundCap; round++ {
		ready := s.ready[round%(holdRounds+1)*s.words:][:s.words]
		for w := range ready {
			for ready[w] != 0 {
				t := w<<6 | bits.TrailingZeros64(ready[w])
				ready[w] &= ready[w] - 1
				s.pending--
				ws := writeSets[t]
				if progress[t] >= len(ws) {
					// Executing with all locks held: this is the commit round.
					s.wake(lt.commit(t), t, round)
					continue
				}
				key := ws[progress[t]]
				if blocked[t] {
					// Retry the same key; succeeds unless another
					// transaction took it first.
					if o, held := lt.owner.Get(key); held {
						lt.park(t, int(o))
						continue
					}
					blocked[t] = false
				}
				res, woken := lt.acquire(t, key)
				switch res {
				case lockGranted:
					progress[t]++
					if progress[t] >= len(ws) {
						s.schedule(t, round+holdRounds)
					} else {
						s.schedule(t, round+1)
					}
				case lockBlocked:
					blocked[t] = true
				case lockDeadlock:
					// Victim aborted; its locks were released.
					s.wake(woken, t, round)
				}
			}
		}
	}
	return lt.stats()
}
