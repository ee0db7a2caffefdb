package obs

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

// validRunlog holds one record of every type, optional fields included.
var validRunlog = []string{
	`{"type":"meta","version":1,"seed":7,"samples":2,"workers":0,"resumed":0,"search":"ucb/b4","apps":["STREAM"],"stall_classes":["busy","mem-lat"],"fabric":{"lease_size":2,"expiry_ms":1000}}`,
	`{"type":"lease","event":"grant","lease":0,"epoch":1,"worker":"wa","lo":0,"hi":2,"elapsed_s":0.001}`,
	`{"type":"config","index":0,"gen":1,"wall_ms":1.500,"cycles":10,"failed":false,"eval":"predicted","confidence":0.900,"apps":[{"app":"STREAM","wall_ms":1.500,"cycles":10,"stalls":[6,4]}]}`,
	`{"type":"config","index":1,"wall_ms":2.000,"cycles":0,"failed":true,"err":"cycle limit","eval":"escalated","apps":[]}`,
	`{"type":"barrier","gen":1,"wall_ms":3.5,"pool_scored":32,"refit_ms":1.2,"score_ms":0.8,"trees_retrained":5,"trees_retained":15}`,
	`{"type":"heartbeat","elapsed_s":0.5,"done":2,"failed":1,"total":2,"rows_per_sec":4,"eta_s":0,"cycles":10}`,
	`{"type":"util","worker":"wa","elapsed_s":0.5,"rows":2,"rows_per_sec":4,"busy_s":0.4,"up_s":0.5,"busy_frac":0.8,"last_seen_s":0.1}`,
	`{"type":"summary","rows":1,"failed":1,"elapsed_s":0.6,"journal_lines":7,"journal_bytes":900}`,
}

// edit returns validRunlog with the first old in line i replaced by new.
func edit(i int, old, new string) []string {
	lines := slices.Clone(validRunlog)
	if !strings.Contains(lines[i], old) {
		panic("edit: " + old + " not in line")
	}
	lines[i] = strings.Replace(lines[i], old, new, 1)
	return lines
}

// withoutBarrier returns validRunlog without its barrier record.
func withoutBarrier() []string {
	lines := slices.Delete(slices.Clone(validRunlog), 4, 5)
	lines[6] = strings.Replace(lines[6], `"journal_lines":7`, `"journal_lines":6`, 1)
	return lines
}

// malformedRunlogs are the runlogs ValidateRunlog must reject, one per
// rule, with the required types each is checked under.
var malformedRunlogs = []struct {
	name    string
	want    string // in the error
	lines   []string
	require []string
}{
	{name: "bad JSON", want: `invalid character`, lines: edit(2, `"failed":false,`, `"failed":false`)},
	{name: "trailing data", want: `after top-level value`, lines: edit(5, `"cycles":10}`, `"cycles":10}}`)},
	{name: "not an object", want: `cannot unmarshal array`, lines: append([]string{validRunlog[0], `[1]`}, validRunlog[1:]...)},
	{name: "empty line", want: `line 2: empty line`, lines: append([]string{validRunlog[0], ``}, validRunlog[1:]...)},
	{name: "unknown type", want: `unknown record type "leases"`, lines: edit(1, `"type":"lease"`, `"type":"leases"`)},
	{name: "type not a string", want: `cannot unmarshal number`, lines: edit(1, `"type":"lease"`, `"type":5`)},
	{name: "missing required field", want: `config: missing required field "cycles"`, lines: edit(2, `"cycles":10,"failed"`, `"failed"`)},
	{name: "missing meta field", want: `meta: missing required field "resumed"`, lines: edit(0, `"resumed":0,`, ``)},
	{name: "missing app field", want: `config.apps[0]: missing required field "app"`, lines: edit(2, `"app":"STREAM",`, ``)},
	{name: "unknown field", want: `unknown field "steals"`, lines: edit(5, `"cycles":10`, `"cycles":10,"steals":0`)},
	{name: "unknown app field", want: `unknown field "l1"`, lines: edit(2, `"stalls":[6,4]`, `"stalls":[6,4],"l1":1`)},
	{name: "string for number", want: `cannot unmarshal string`, lines: edit(0, `"seed":7`, `"seed":"7"`)},
	{name: "bool for number", want: `cannot unmarshal bool`, lines: edit(5, `"done":2`, `"done":true`)},
	{name: "fraction for int", want: `cannot unmarshal number 1.5`, lines: edit(1, `"lo":0`, `"lo":1.5`)},
	{name: "number for bool", want: `cannot unmarshal number`, lines: edit(2, `"failed":false`, `"failed":0`)},
	{name: "number for string", want: `cannot unmarshal number`, lines: edit(1, `"event":"grant"`, `"event":1`)},
	{name: "object for array", want: `cannot unmarshal object`, lines: edit(0, `"apps":["STREAM"]`, `"apps":{}`)},
	{name: "null required field", want: `summary.rows: null`, lines: edit(7, `"rows":1`, `"rows":null`)},
	{name: "null optional field", want: `meta.search: null`, lines: edit(0, `"search":"ucb/b4"`, `"search": null`)},
	{name: "null fabric", want: `meta.fabric: null`, lines: edit(0, `"fabric":{"lease_size":2,"expiry_ms":1000}`, `"fabric":null`)},
	{name: "second meta", want: `line 2: meta record, want exactly one meta record`, lines: append([]string{validRunlog[0], validRunlog[0]}, validRunlog[1:]...)},
	{name: "meta not first", want: `line 1: lease record, want exactly one meta record`, lines: append([]string{validRunlog[1], validRunlog[0]}, validRunlog[2:]...)},
	{name: "no meta", want: `line 1: lease record, want exactly one meta record`, lines: validRunlog[1:]},
	{name: "no summary", want: `no summary record`, lines: validRunlog[:7]},
	{name: "summary not last", want: `line 9: record after the summary`, lines: append(slices.Clone(validRunlog), validRunlog[5])},
	{name: "second summary", want: `line 9: record after the summary`, lines: append(slices.Clone(validRunlog), validRunlog[7])},
	{name: "journal_lines mismatch", want: `summary says 6 journal lines, 7 precede it`, lines: edit(7, `"journal_lines":7`, `"journal_lines":6`)},
	{name: "stalls length mismatch", want: `apps[0] has 3 stall entries, meta declares 2`, lines: edit(2, `"stalls":[6,4]`, `"stalls":[6,4,0]`)},
	{name: "fabric missing lease_size", want: `meta.fabric: missing required field "lease_size"`, lines: edit(0, `"lease_size":2,`, ``)},
	{name: "fabric unknown key", want: `unknown field "chunk"`, lines: edit(0, `"expiry_ms":1000`, `"expiry_ms":1000,"chunk":1`)},
	{name: "fabric not an object", want: `meta.fabric: not an object`, lines: edit(0, `{"lease_size":2,"expiry_ms":1000}`, `[2,1000]`)},
	{name: "apps item not an object", want: `config.apps[0]: not an object`, lines: edit(2, `{"app":"STREAM","wall_ms":1.500,"cycles":10,"stalls":[6,4]}`, `5`)},
	{name: "required type absent", want: `no "barrier" records`, lines: withoutBarrier(), require: []string{"barrier"}},
	{name: "required type unknown", want: `required type "steal" is not a record type`, lines: validRunlog, require: []string{"lease", "steal"}},
	{name: "empty runlog", want: `runlog: empty`, lines: nil},
}

func TestValidateRunlogAccepts(t *testing.T) {
	counts, err := ValidateRunlog(strings.NewReader(strings.Join(validRunlog, "\n")+"\n"), RunlogTypes()...)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"meta": 1, "lease": 1, "config": 2, "barrier": 1, "heartbeat": 1, "util": 1, "summary": 1}
	if !reflect.DeepEqual(counts, want) {
		t.Errorf("counts = %v, want %v", counts, want)
	}
	// The last line needs no newline, and optional fields may be absent.
	lean := []string{
		`{"type":"meta","version":1,"seed":7,"samples":1,"workers":2,"resumed":0,"apps":["STREAM"],"stall_classes":["busy"]}`,
		`{"type":"config","index":0,"wall_ms":1.000,"cycles":3,"failed":false,"apps":[{"app":"STREAM","wall_ms":1.000,"cycles":3,"stalls":[3]}]}`,
		`{"type":"summary","rows":1,"failed":0,"elapsed_s":1,"journal_lines":2,"journal_bytes":200}`,
	}
	if _, err := ValidateRunlog(strings.NewReader(strings.Join(lean, "\n")), "config"); err != nil {
		t.Errorf("runlog without optional fields: %v", err)
	}
}

func TestValidateRunlogRejects(t *testing.T) {
	for _, tc := range malformedRunlogs {
		text := strings.Join(tc.lines, "\n")
		if len(tc.lines) > 0 {
			text += "\n"
		}
		counts, err := ValidateRunlog(strings.NewReader(text), tc.require...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: counts %v, error %v, want an error containing %q", tc.name, counts, err, tc.want)
		}
	}
}
