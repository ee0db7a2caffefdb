package armdse_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// historyRecord is one line of results/perfbench_history.jsonl: a number a
// change claimed from perfbench, as medians and quartiles of the parent's
// and the change's runs over alternating pairs. Every field is required. A
// null commit names the commit that added the record, whose hash is not
// known when the record is written.
type historyRecord struct {
	PR           int     `json:"pr"`
	Commit       *string `json:"commit"`
	Parent       string  `json:"parent"`
	Workload     string  `json:"workload"`
	Metric       string  `json:"metric"`
	Unit         string  `json:"unit"`
	ParentMedian float64 `json:"parent_median"`
	ParentQ1     float64 `json:"parent_q1"`
	ParentQ3     float64 `json:"parent_q3"`
	ChangeMedian float64 `json:"change_median"`
	ChangeQ1     float64 `json:"change_q1"`
	ChangeQ3     float64 `json:"change_q3"`
	PairsWon     int     `json:"pairs_won"`
	Pairs        int     `json:"pairs"`
	Go           string  `json:"go"`
	NProc        int     `json:"nproc"`
	Seed         int64   `json:"seed"`
}

// TestPerfbenchHistory checks the append-only benchmark history: every line
// parses with every field, names a BENCHMARK.json workload and a metric in
// that metric's declared unit, has ordered quartiles and at most as many
// wins as pairs, and PR numbers strictly increase down the file.
func TestPerfbenchHistory(t *testing.T) {
	var bench struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	workloads := make(map[string]bool)
	for _, w := range bench.Workloads {
		workloads[w.Name] = true
	}
	units := make(map[string]string)
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		units[m.Name] = m.Unit
	}

	f, err := os.Open("results/perfbench_history.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rt := reflect.TypeOf(historyRecord{})
	lastPR, lines := 0, 0
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(sc.Bytes(), &fields); err != nil {
			t.Fatalf("line %d: %v", line, err)
		}
		for i := range rt.NumField() {
			if name := rt.Field(i).Tag.Get("json"); fields[name] == nil {
				t.Fatalf("line %d: missing %s", line, name)
			}
		}
		var r historyRecord
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("line %d: %v", line, err)
		}
		lines++
		if r.PR <= lastPR {
			t.Errorf("line %d: pr %d does not follow pr %d", line, r.PR, lastPR)
		}
		lastPR = r.PR
		if !workloads[r.Workload] {
			t.Errorf("line %d: workload %q not in BENCHMARK.json", line, r.Workload)
		}
		if want, ok := units[r.Metric]; !ok || r.Unit != want {
			t.Errorf("line %d: metric %q in %q, BENCHMARK.json declares %q", line, r.Metric, r.Unit, want)
		}
		if r.ParentQ1 > r.ParentMedian || r.ParentMedian > r.ParentQ3 ||
			r.ChangeQ1 > r.ChangeMedian || r.ChangeMedian > r.ChangeQ3 {
			t.Errorf("line %d: quartiles out of order", line)
		}
		if r.Pairs < 1 || r.PairsWon < 0 || r.PairsWon > r.Pairs {
			t.Errorf("line %d: %d of %d pairs won", line, r.PairsWon, r.Pairs)
		}
		if r.NProc < 1 || r.Parent == "" || r.Go == "" || (r.Commit != nil && *r.Commit == "") {
			t.Errorf("line %d: empty provenance", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Error("no records")
	}
}
