package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// layerMetrics are the per-layer metrics the benchmark's design names, each
// of which a traced run must emit (or README.md must list as dropped, with
// the reason, in droppedLayerMetrics).
var layerMetrics = []string{
	"workload.build_s", "workload.arena_minst",
	"simeng.ns_per_cycle", "simeng.minst_per_s", "simeng.sim_cycles",
	"sstmem.ns_per_access", "sstmem.share_pct", "sstmem.accesses", "sstmem.l1_miss_pct",
	"orchestrate.engine_overhead_pct", "orchestrate.config_ms.p50", "orchestrate.config_ms.p90",
	"hybrid.predicted_pct", "hybrid.escalated", "hybrid.bound_us_per_config",
	"dataset.append_us_per_row", "dataset.compact_s",
	"dtree.train_s", "dtree.importance_s", "dtree.analysis_s",
	"search.barrier_ms.p50", "search.barrier_ms.max", "search.barrier_share_pct",
	"search.refit_ms", "search.score_ms", "search.pool_scored", "search.generations",
	"fabric.overhead_pct", "fabric.advance_ms.p50", "fabric.advance_ms.p90", "fabric.lease_ms.p50",
	"fabric.requests", "fabric.rejected", "fabric.steals", "fabric.worker_busy_pct", "fabric.merge_s",
}

// droppedLayerMetrics maps a named per-layer metric the benchmark does not
// emit to the reason. Empty: every named metric is emitted.
var droppedLayerMetrics = map[string]string{}

// selfTest runs every workload of BENCHMARK.json at tiny size, untraced and
// traced, and checks each run is correct and emits exactly the metric names
// and units BENCHMARK.json declares.
func selfTest(path, workdir string, stderr io.Writer) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	declared := map[string]bool{}
	for _, m := range bf.PerLayer {
		declared[m.Name] = true
	}
	var problems []string
	for _, name := range layerMetrics {
		_, dropped := droppedLayerMetrics[name]
		if !declared[name] && !dropped {
			problems = append(problems, fmt.Sprintf("per-layer metric %s is neither declared nor dropped", name))
		}
	}
	for _, wl := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			opt := options{workload: wl.Name, seed: defaultSeed, seconds: 0, trace: trace, size: "tiny", workdir: workdir}
			res, _, err := runWorkload(context.Background(), opt, stderr)
			if err != nil {
				return fmt.Errorf("%s trace=%t: %w", wl.Name, trace, err)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			problems = append(problems, compareMetrics(wl.Name, trace, res, want)...)
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("%d problems:\n  %s", len(problems), strings.Join(problems, "\n  "))
	}
	return nil
}

// compareMetrics lists every way res differs from the declared metrics.
func compareMetrics(wl string, trace bool, res result, want []benchMetric) []string {
	var out []string
	tag := fmt.Sprintf("%s trace=%t", wl, trace)
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		out = append(out, fmt.Sprintf("%s: correct=%t attempted=%d failed=%d", tag, res.Correct, res.Attempted, res.Failed))
	}
	seen := map[string]bool{}
	for _, m := range want {
		seen[m.Name] = true
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("%s: metric %s missing", tag, m.Name))
		case got.Unit != m.Unit:
			out = append(out, fmt.Sprintf("%s: metric %s has unit %s, declared %s", tag, m.Name, got.Unit, m.Unit))
		}
	}
	var extra []string
	for name := range res.Metrics {
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		out = append(out, fmt.Sprintf("%s: metric %s is not declared", tag, name))
	}
	return out
}
