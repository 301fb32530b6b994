package gbdt

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// Gob persistence for trained ensembles: the gbdt engine's envelope payload
// (engine.SaveEngine / LoadEngine) carries its Ensemble in this form.
//
// Trees are stored in structure-of-arrays form — one slice per node field,
// indexed like the flattened node slice — so the format has no unexported
// types and a version bump only has to migrate plain slices.

// treeState is the serialized form of one Tree.
type treeState struct {
	Feature   []int32
	Threshold []float64
	Left      []int32
	Right     []int32
	Value     []float64
}

// ensembleState is the serialized form of an Ensemble.
type ensembleState struct {
	Bias  float64
	LR    float64
	Dim   int
	Trees []treeState
}

// GobEncode implements gob.GobEncoder.
func (e *Ensemble) GobEncode() ([]byte, error) {
	st := ensembleState{Bias: e.Bias, LR: e.LR, Dim: e.dim}
	for _, t := range e.Trees {
		ts := treeState{
			Feature:   make([]int32, len(t.nodes)),
			Threshold: make([]float64, len(t.nodes)),
			Left:      make([]int32, len(t.nodes)),
			Right:     make([]int32, len(t.nodes)),
			Value:     make([]float64, len(t.nodes)),
		}
		for i, n := range t.nodes {
			ts.Feature[i] = int32(n.feature)
			ts.Threshold[i] = n.threshold
			ts.Left[i] = int32(n.left)
			ts.Right[i] = int32(n.right)
			ts.Value[i] = n.value
		}
		st.Trees = append(st.Trees, ts)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder, validating node indices so a corrupt
// file cannot produce a tree that walks out of bounds.
func (e *Ensemble) GobDecode(data []byte) error {
	var st ensembleState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return err
	}
	if st.Dim <= 0 {
		return fmt.Errorf("gbdt: decoded ensemble has dim %d", st.Dim)
	}
	e.Bias, e.LR, e.dim = st.Bias, st.LR, st.Dim
	e.Trees = nil
	for ti, ts := range st.Trees {
		n := len(ts.Feature)
		if len(ts.Threshold) != n || len(ts.Left) != n || len(ts.Right) != n || len(ts.Value) != n {
			return fmt.Errorf("gbdt: tree %d has ragged node arrays", ti)
		}
		if n == 0 {
			return fmt.Errorf("gbdt: tree %d is empty", ti)
		}
		t := &Tree{nodes: make([]node, n)}
		for i := 0; i < n; i++ {
			nd := node{
				feature:   int(ts.Feature[i]),
				threshold: ts.Threshold[i],
				left:      int(ts.Left[i]),
				right:     int(ts.Right[i]),
				value:     ts.Value[i],
			}
			if nd.feature >= 0 {
				if nd.feature >= st.Dim {
					return fmt.Errorf("gbdt: tree %d node %d splits on feature %d, dim %d", ti, i, nd.feature, st.Dim)
				}
				if nd.left < 0 || nd.left >= n || nd.right < 0 || nd.right >= n {
					return fmt.Errorf("gbdt: tree %d node %d has child out of range", ti, i)
				}
			}
			t.nodes[i] = nd
		}
		e.Trees = append(e.Trees, t)
	}
	return nil
}
