package rf

import (
	"bytes"
	"encoding/gob"
	"testing"

	"github.com/hunter-cdb/hunter/internal/sim"
)

// TestForestSnapshotRoundTrip verifies a restored forest predicts and
// ranks identically to the original.
func TestForestSnapshotRoundTrip(t *testing.T) {
	rng := sim.NewRNG(11)
	n, dim := 80, 7
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = make([]float64, dim)
		for j := range x[i] {
			x[i][j] = rng.Float64()
		}
		y[i] = 3*x[i][2] - x[i][5] + 0.1*rng.NormFloat64()
	}
	f, err := Train(x, y, Options{Trees: 25}, sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.SnapshotTo(&buf); err != nil {
		t.Fatalf("SnapshotTo: %v", err)
	}
	var r Forest
	if err := r.RestoreFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("RestoreFrom: %v", err)
	}
	for i := range x {
		if a, b := f.Predict(x[i]), r.Predict(x[i]); a != b {
			t.Fatalf("prediction %d diverged: %v != %v", i, a, b)
		}
	}
	ia, ib := f.Ranking(), r.Ranking()
	for i := range ia {
		if ia[i] != ib[i] {
			t.Fatalf("ranking diverged at %d: %v vs %v", i, ia, ib)
		}
	}
}

// TestForestRestoreRejectsBad checks malformed snapshots are refused.
func TestForestRestoreRejectsBad(t *testing.T) {
	var f Forest
	if err := f.RestoreFrom(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Fatal("garbage accepted")
	}
}

// A snapshot whose trees are empty or point a split back at itself or an
// ancestor must be refused: Predict on such a tree never returns.
func TestForestRestoreRejectsCyclicTrees(t *testing.T) {
	leaf := NodeState{Feature: -1, Value: 1}
	for name, nodes := range map[string][]NodeState{
		"empty":         {},
		"self":          {{Feature: 0, Left: 0, Right: 1}, leaf},
		"ancestor":      {{Feature: 0, Left: 1, Right: 2}, {Feature: 0, Left: 0, Right: 2}, leaf},
		"out of range":  {{Feature: 0, Left: 1, Right: 2}, leaf},
		"negative left": {{Feature: 0, Left: -1, Right: 1}, leaf},
	} {
		var buf bytes.Buffer
		st := forestState{Trees: [][]NodeState{nodes}, Importance: []float64{1}, Dim: 1}
		if err := gob.NewEncoder(&buf).Encode(st); err != nil {
			t.Fatal(err)
		}
		var f Forest
		if err := f.RestoreFrom(&buf); err == nil {
			t.Errorf("%s tree accepted", name)
		}
	}
}
