package main

import (
	"context"
	"testing"
)

// TestWrappersPassThrough pins that the benchmark's wrappers do not change
// the program they measure: for every workload, and for exact-sweep's
// configs run through the fleet, a plain run (dispatch clock, row recorder,
// transport timer) and a traced run (spans, batch timer, telemetry) produce
// a dataset byte-identical to a run on the program's own objects.
func TestWrappersPassThrough(t *testing.T) {
	defs, err := workloadDefs("tiny")
	if err != nil {
		t.Fatal(err)
	}
	defs["fleet"] = asFleet(defs["exact-sweep"])
	for _, name := range []string{"exact-sweep", "adaptive-ucb", "fleet"} {
		t.Run(name, func(t *testing.T) {
			r := &runner{def: defs[name], seed: 3, threads: 2, workdir: t.TempDir(), tr: newTracer()}
			var digests [3]string
			for level := bare; level <= traced; level++ {
				s, err := r.study(context.Background(), int(level), level)
				if err != nil {
					t.Fatalf("level %d: %v", level, err)
				}
				digests[level] = s.sha
			}
			if digests[plain] != digests[bare] || digests[traced] != digests[bare] {
				t.Errorf("dataset digests bare %s, plain %s, traced %s; want all equal",
					digests[bare], digests[plain], digests[traced])
			}
		})
	}
}
