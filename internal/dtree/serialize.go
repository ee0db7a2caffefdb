package dtree

import "encoding/json"

// Canonical model encodings. Nodes are packed in deterministic preorder, so
// two trainings that grew the same model (e.g. the same data at different
// worker counts) serialise to identical bytes; the byte-identity tests
// compare these encodings.

// treeJSON is the encoded form of a Tree.
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

// forestJSON is the encoded form of a Forest: a version-1 "forest" record
// wrapping the trees' encodings.
type forestJSON struct {
	Version int    `json:"version"`
	Kind    string `json:"kind"`
	Forest  struct {
		Trees []treeJSON `json:"trees"`
	} `json:"forest"`
}

// toJSON converts the tree to its encoded form.
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

// Serialize returns the tree's canonical encoding: one line of JSON.
func (t *Tree) Serialize() ([]byte, error) {
	return encodeLine(t.toJSON())
}

// Serialize returns the forest's canonical encoding: one line of JSON.
func (f *Forest) Serialize() ([]byte, error) {
	fj := forestJSON{Version: 1, Kind: "forest"}
	fj.Forest.Trees = make([]treeJSON, len(f.trees))
	for i, t := range f.trees {
		fj.Forest.Trees[i] = t.toJSON()
	}
	return encodeLine(fj)
}

// encodeLine marshals v and ends it with a newline.
func encodeLine(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
