package dtree

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// treeJSON is the on-disk form of a Tree.
type treeJSON struct {
	NFeatures int        `json:"n_features"`
	Nodes     []nodeJSON `json:"nodes"`
}

type nodeJSON struct {
	Feature   int32   `json:"f"`
	Threshold float64 `json:"t,omitempty"`
	Value     float64 `json:"v"`
	Left      int32   `json:"l,omitempty"`
	Right     int32   `json:"r,omitempty"`
}

// toJSON converts the tree to its on-disk form.
func (t *Tree) toJSON() treeJSON {
	tj := treeJSON{NFeatures: t.nFeatures, Nodes: make([]nodeJSON, len(t.nodes))}
	for i, nd := range t.nodes {
		tj.Nodes[i] = nodeJSON{
			Feature:   nd.feature,
			Threshold: nd.threshold,
			Value:     nd.value,
			Left:      nd.left,
			Right:     nd.right,
		}
	}
	return tj
}

// treeFromJSON validates the on-disk form and reconstructs the tree.
func treeFromJSON(tj treeJSON) (*Tree, error) {
	if tj.NFeatures < 1 {
		return nil, fmt.Errorf("dtree: invalid feature count %d", tj.NFeatures)
	}
	if len(tj.Nodes) == 0 {
		return nil, fmt.Errorf("dtree: empty tree")
	}
	t := &Tree{nFeatures: tj.NFeatures, nodes: make([]node, len(tj.Nodes))}
	n := int32(len(tj.Nodes))
	for i, nd := range tj.Nodes {
		if nd.Feature >= 0 {
			if nd.Feature >= int32(tj.NFeatures) {
				return nil, fmt.Errorf("dtree: node %d splits on feature %d of %d", i, nd.Feature, tj.NFeatures)
			}
			if nd.Left <= int32(i) || nd.Left >= n || nd.Right <= int32(i) || nd.Right >= n {
				return nil, fmt.Errorf("dtree: node %d has out-of-order children (%d, %d)", i, nd.Left, nd.Right)
			}
		}
		t.nodes[i] = node{
			feature:   nd.Feature,
			threshold: nd.Threshold,
			value:     nd.Value,
			left:      nd.Left,
			right:     nd.Right,
		}
	}
	return t, nil
}

// Write serialises the tree as JSON, so a trained surrogate can be shipped
// and reused without retraining (the paper's "easily applied to new codes or
// a new system design" deployment story).
func (t *Tree) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(t.toJSON()); err != nil {
		return err
	}
	return bw.Flush()
}

// Serialize returns the tree's canonical encoding — the bytes Write emits.
// Because nodes are packed in deterministic preorder, two trainings that
// grew the same tree (e.g. the same data at different worker counts)
// serialise to identical bytes, which is the repo's equivalence test for
// the parallel trainer.
func (t *Tree) Serialize() ([]byte, error) {
	var buf bytes.Buffer
	if err := t.Write(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Read deserialises a tree written by Write and validates its structure.
func Read(r io.Reader) (*Tree, error) {
	var tj treeJSON
	if err := json.NewDecoder(r).Decode(&tj); err != nil {
		return nil, fmt.Errorf("dtree: decoding tree: %w", err)
	}
	return treeFromJSON(tj)
}
