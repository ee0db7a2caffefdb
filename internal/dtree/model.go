package dtree

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"armdse/internal/atomicfile"
)

// Versioned model envelope. Tree.Write historically emitted a bare
// {"n_features":...,"nodes":[...]} object, which leaves no room to store a
// Forest — or anything else — in the same artifact slot. The envelope wraps
// either model kind with an explicit version and kind tag:
//
//	{"version":1,"kind":"tree","tree":{...}}
//	{"version":1,"kind":"forest","forest":{"trees":[{...},...]}}
//
// ReadModel still accepts the legacy bare-tree form (no "kind" field), so
// artifacts written before the envelope keep loading.

// modelVersion is the current envelope schema version.
const modelVersion = 1

type modelEnvelope struct {
	Version int         `json:"version"`
	Kind    string      `json:"kind"`
	Tree    *treeJSON   `json:"tree,omitempty"`
	Forest  *forestJSON `json:"forest,omitempty"`
}

type forestJSON struct {
	Trees []treeJSON `json:"trees"`
}

// WriteModel serialises a trained model — *Tree or *Forest — inside the
// versioned envelope.
func WriteModel(m Predictor, w io.Writer) error {
	env := modelEnvelope{Version: modelVersion}
	switch m := m.(type) {
	case *Tree:
		tj := m.toJSON()
		env.Kind = "tree"
		env.Tree = &tj
	case *Forest:
		fj := forestJSON{Trees: make([]treeJSON, len(m.trees))}
		for i, t := range m.trees {
			fj.Trees[i] = t.toJSON()
		}
		env.Kind = "forest"
		env.Forest = &fj
	default:
		return fmt.Errorf("dtree: cannot serialise model type %T", m)
	}
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(env); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadModel deserialises a model written by WriteModel and returns it as a
// Predictor; callers that need the concrete type switch on *Tree / *Forest.
// A bare tree written by Tree.Write before the envelope existed (no "kind"
// field) is recognised and loaded as a *Tree.
func ReadModel(r io.Reader) (Predictor, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("dtree: reading model: %w", err)
	}
	var env modelEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return nil, fmt.Errorf("dtree: decoding model: %w", err)
	}
	switch env.Kind {
	case "":
		// Legacy artifact: a raw treeJSON has no "kind" key.
		return Read(bytes.NewReader(raw))
	case "tree":
		if env.Version != modelVersion {
			return nil, fmt.Errorf("dtree: unsupported model version %d", env.Version)
		}
		if env.Tree == nil {
			return nil, fmt.Errorf("dtree: tree envelope without tree payload")
		}
		return treeFromJSON(*env.Tree)
	case "forest":
		if env.Version != modelVersion {
			return nil, fmt.Errorf("dtree: unsupported model version %d", env.Version)
		}
		if env.Forest == nil {
			return nil, fmt.Errorf("dtree: forest envelope without forest payload")
		}
		if len(env.Forest.Trees) == 0 {
			return nil, fmt.Errorf("dtree: empty forest")
		}
		f := &Forest{trees: make([]*Tree, len(env.Forest.Trees))}
		for i, tj := range env.Forest.Trees {
			t, err := treeFromJSON(tj)
			if err != nil {
				return nil, fmt.Errorf("dtree: forest tree %d: %w", i, err)
			}
			if t.nFeatures != f.trees[0].numFeaturesOr(t.nFeatures) {
				return nil, fmt.Errorf("dtree: forest tree %d has %d features, tree 0 has %d",
					i, t.nFeatures, f.trees[0].nFeatures)
			}
			f.trees[i] = t
		}
		return f, nil
	default:
		return nil, fmt.Errorf("dtree: unknown model kind %q", env.Kind)
	}
}

// numFeaturesOr guards the first-tree comparison in ReadModel: tree 0 is
// nil while it is itself being decoded.
func (t *Tree) numFeaturesOr(def int) int {
	if t == nil {
		return def
	}
	return t.nFeatures
}

// SaveModel writes the model to path in the envelope format, renaming it
// into place once complete: a failed save leaves an earlier file at path
// as it was.
func SaveModel(m Predictor, path string) error {
	return atomicfile.Write(path, func(w io.Writer) error { return WriteModel(m, w) })
}

// LoadModel reads a model (tree, forest, or legacy bare tree) from path.
func LoadModel(path string) (Predictor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadModel(f)
}
