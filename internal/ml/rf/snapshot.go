package rf

import (
	"encoding/gob"
	"fmt"
	"io"
)

// NodeState is one serialized CART node (Feature -1 marks a leaf).
type NodeState struct {
	Feature     int
	Threshold   float64
	Left, Right int
	Value       float64
}

// forestState is the trained forest in portable form.
type forestState struct {
	Trees      [][]NodeState
	Importance []float64
	Dim        int
}

// SnapshotTo serializes the trained forest (checkpoint.Snapshotter).
func (f *Forest) SnapshotTo(w io.Writer) error {
	st := forestState{
		Trees:      make([][]NodeState, len(f.trees)),
		Importance: f.importance,
		Dim:        f.dim,
	}
	for i, t := range f.trees {
		nodes := make([]NodeState, len(t.nodes))
		for j, n := range t.nodes {
			nodes[j] = NodeState{Feature: n.feature, Threshold: n.threshold, Left: n.left, Right: n.right, Value: n.value}
		}
		st.Trees[i] = nodes
	}
	return gob.NewEncoder(w).Encode(st)
}

// RestoreFrom reinstates a forest written by SnapshotTo
// (checkpoint.Restorer). The forest is unchanged on error.
func (f *Forest) RestoreFrom(r io.Reader) error {
	var st forestState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return err
	}
	if st.Dim <= 0 {
		return fmt.Errorf("rf: snapshot dimension %d invalid", st.Dim)
	}
	if len(st.Importance) != st.Dim {
		return fmt.Errorf("rf: snapshot importance sized %d, want %d", len(st.Importance), st.Dim)
	}
	trees := make([]*tree, len(st.Trees))
	for i, nodes := range st.Trees {
		if len(nodes) == 0 {
			return fmt.Errorf("rf: snapshot tree %d is empty", i)
		}
		t := &tree{nodes: make([]node, len(nodes))}
		for j, n := range nodes {
			if n.Feature >= st.Dim {
				return fmt.Errorf("rf: snapshot tree %d node %d splits on feature %d of %d", i, j, n.Feature, st.Dim)
			}
			// The trainer appends children after their parent, so a child
			// index at or before its parent's is a cycle Predict would
			// never leave.
			if n.Feature >= 0 && (n.Left <= j || n.Left >= len(nodes) || n.Right <= j || n.Right >= len(nodes)) {
				return fmt.Errorf("rf: snapshot tree %d node %d has children (%d, %d) outside (%d, %d)", i, j, n.Left, n.Right, j, len(nodes))
			}
			t.nodes[j] = node{feature: n.Feature, threshold: n.Threshold, left: n.Left, right: n.Right, value: n.Value}
		}
		trees[i] = t
	}
	f.trees = trees
	f.importance = st.Importance
	f.dim = st.Dim
	return nil
}
