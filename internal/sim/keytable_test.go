package sim

import (
	"math"
	"testing"
)

// chainKeys returns count keys whose home is slot `home` in every table of
// 16 to 64 slots, so they share one probe chain until the table grows past
// 64 slots.
func chainKeys(home uint64, count int) []uint64 {
	var keys []uint64
	for k := uint64(0); len(keys) < count; k++ {
		if (k*0x9E3779B97F4A7C15)>>58 == home {
			keys = append(keys, k)
		}
	}
	return keys
}

// probeKeys is the key pool the differential tests draw from: two long
// shared chains, one homed on the last slot so it wraps around the table
// end, plus keys spread over the whole range.
var probeKeys = func() []uint64 {
	keys := append(chainKeys(63, 24), chainKeys(0, 12)...)
	return append(keys, 1, 2, 3, 1<<32, math.MaxUint64, math.MaxUint64-1)
}()

func TestKeyTableZeroValue(t *testing.T) {
	var kt KeyTable
	if _, ok := kt.Get(5); ok || kt.Delete(5) || kt.n != 0 {
		t.Fatal("zero table should be empty")
	}
	if v, ok := kt.GetOrPut(5, 9); ok || v != 9 {
		t.Fatalf("first GetOrPut = (%d, %v), want (9, false)", v, ok)
	}
	if v, ok := kt.GetOrPut(5, 1); !ok || v != 9 {
		t.Fatalf("second GetOrPut = (%d, %v), want the stored (9, true)", v, ok)
	}
	if v, ok := kt.Get(5); !ok || v != 9 || kt.n != 1 {
		t.Fatalf("Get = (%d, %v), len %d", v, ok, kt.n)
	}
}

func TestKeyTableExtremeKeysAndValues(t *testing.T) {
	var kt KeyTable
	for i, k := range []uint64{0, math.MaxUint64} {
		kt.GetOrPut(k, int32(i)*math.MaxInt32)
	}
	if v, ok := kt.Get(0); !ok || v != 0 {
		t.Fatalf("key 0 = (%d, %v)", v, ok)
	}
	if v, ok := kt.Get(math.MaxUint64); !ok || v != math.MaxInt32 {
		t.Fatalf("key MaxUint64 = (%d, %v)", v, ok)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a negative value should panic")
		}
	}()
	kt.GetOrPut(7, -1)
}

// Deleting from the front, middle and end of a shared chain, including one
// that wraps around the table end, must leave every other key reachable.
func TestKeyTableDeleteKeepsChainReachable(t *testing.T) {
	for _, home := range []uint64{0, 63} {
		keys := chainKeys(home, 6)
		for del := range keys {
			var kt KeyTable
			kt.Reset(32) // 64 slots: the chain keys share one home
			for i, k := range keys {
				kt.GetOrPut(k, int32(i))
			}
			if !kt.Delete(keys[del]) || kt.Delete(keys[del]) {
				t.Fatalf("home %d: delete %d should succeed exactly once", home, del)
			}
			for i, k := range keys {
				v, ok := kt.Get(k)
				if i == del && ok {
					t.Fatalf("home %d: deleted key %d still present", home, i)
				}
				if i != del && (!ok || v != int32(i)) {
					t.Fatalf("home %d: after deleting %d, key %d = (%d, %v)", home, del, i, v, ok)
				}
			}
		}
	}
}

// Reset empties the table and keeps its storage when it is large enough.
func TestKeyTableResetReuses(t *testing.T) {
	var kt KeyTable
	kt.Reset(100)
	for k := uint64(0); k < 100; k++ {
		kt.GetOrPut(k, int32(k))
	}
	slots := &kt.slots[0]
	kt.Reset(10)
	if kt.n != 0 || &kt.slots[0] != slots {
		t.Fatal("Reset should empty the table in place")
	}
	for k := uint64(0); k < 100; k++ {
		if _, ok := kt.Get(k); ok {
			t.Fatalf("key %d survived Reset", k)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() {
		kt.Reset(50)
		for k := uint64(0); k < 50; k++ {
			kt.GetOrPut(k*7919, 1)
		}
	}); allocs != 0 {
		t.Fatalf("reused table allocated %v times", allocs)
	}
}

// replayOps applies an encoded op sequence to a KeyTable and a Go map and
// reports the first disagreement. Each op is two bytes: the op code and
// the index of its key in probeKeys.
func replayOps(t *testing.T, ops []byte) {
	t.Helper()
	var kt KeyTable
	ref := map[uint64]int32{}
	for i := 0; i+1 < len(ops); i += 2 {
		k := probeKeys[int(ops[i+1])%len(probeKeys)]
		switch ops[i] % 4 {
		case 0:
			v, ok := kt.Get(k)
			if rv, rok := ref[k]; ok != rok || v != rv {
				t.Fatalf("op %d: Get(%d) = (%d, %v), map has (%d, %v)", i/2, k, v, ok, rv, rok)
			}
		case 1:
			v, ok := kt.GetOrPut(k, int32(i))
			rv, rok := ref[k]
			if !rok {
				rv = int32(i)
				ref[k] = rv
			}
			if ok != rok || v != rv {
				t.Fatalf("op %d: GetOrPut(%d) = (%d, %v), want (%d, %v)", i/2, k, v, ok, rv, rok)
			}
		case 2:
			_, rok := ref[k]
			delete(ref, k)
			if ok := kt.Delete(k); ok != rok {
				t.Fatalf("op %d: Delete(%d) = %v, map had it: %v", i/2, k, ok, rok)
			}
		case 3:
			kt.Reset(int(ops[i+1]) % 40)
			clear(ref)
		}
		if kt.n != len(ref) {
			t.Fatalf("op %d: table holds %d keys, map %d", i/2, kt.n, len(ref))
		}
		for rk, rv := range ref {
			if v, ok := kt.Get(rk); !ok || v != rv {
				t.Fatalf("op %d: key %d = (%d, %v), map has %d", i/2, rk, v, ok, rv)
			}
		}
	}
}

// FuzzKeyTable replays put/get/delete/reset sequences against a Go map,
// with most keys forced into shared probe chains: backward-shift deletion
// is the part that can silently lose entries.
func FuzzKeyTable(f *testing.F) {
	f.Add([]byte{1, 0, 1, 1, 1, 2, 2, 0, 0, 1, 0, 2})
	f.Add([]byte{1, 30, 1, 31, 1, 32, 2, 31, 0, 30, 0, 32, 3, 5, 0, 30})
	// Every pool key in, then out in a different order.
	var long []byte
	for i := range probeKeys {
		long = append(long, 1, byte(i))
	}
	for i := range probeKeys {
		long = append(long, 2, byte(i*7), 0, byte(i*11))
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, ops []byte) { replayOps(t, ops) })
}

// A long deterministic random sequence, so the plain test run covers more
// than the fuzz seeds.
func TestKeyTableMatchesMap(t *testing.T) {
	r := NewRNG(8)
	ops := make([]byte, 40000)
	for i := range ops {
		ops[i] = byte(r.Intn(256))
		if i%2 == 0 && r.Float64() < 0.99 {
			ops[i] %= 3 // resets rare, so the table fills and grows
		}
	}
	replayOps(t, ops)
}
