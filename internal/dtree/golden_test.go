package dtree

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestModelBytesGolden pins the serialized bytes of three models trained on
// the golden fixture: an exact tree, a 20-tree forest and one warm refit of
// that forest on grown data. Any change to the order in which the exact
// split search visits tied values moves a running sum's rounding and so a
// threshold or leaf value somewhere, which fails here rather than only in
// the end-to-end dataset digests downstream.
func TestModelBytesGolden(t *testing.T) {
	d := loadGolden(t)
	y, err := d.Target(d.Apps[0])
	if err != nil {
		t.Fatal(err)
	}
	const grown = 150 // the warm refit starts from a forest on the first rows
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}

	tree, err := Train(d.X, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	treeBytes, err := tree.Serialize()
	if err != nil {
		t.Fatal(err)
	}

	fo := ForestOptions{Trees: 20, Seed: 7}
	forest, err := TrainForest(d.X, y, fo)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := TrainForest(d.X[:grown], y[:grown], fo)
	if err != nil {
		t.Fatal(err)
	}
	warm, retrained, err := RefitForest(prev, d.X, y, RefitOptions{ForestOptions: fo, Gen: 1})
	if err != nil {
		t.Fatal(err)
	}
	if retrained != 5 {
		t.Fatalf("warm refit retrained %d trees, want Trees/4 = 5", retrained)
	}

	for _, c := range []struct {
		name, got, want string
	}{
		{"exact tree", digest(treeBytes), "b6aa042fb06e382c0f97b2e387b604abecb6ff00304e5b283c6a83d5d5541205"},
		{"forest", digest(modelBytes(t, forest)), "a373cb6b6827aed257571808c46fc5146f99d6f1454fd68d899aace25c9f304d"},
		{"warm refit", digest(modelBytes(t, warm)), "078cfbfb03427e71746678e8e73dbb37a4947fbd17d39dc492b58ca79620a4c9"},
	} {
		if c.got != c.want {
			t.Errorf("%s: sha256 %s, want %s", c.name, c.got, c.want)
		}
	}
}
