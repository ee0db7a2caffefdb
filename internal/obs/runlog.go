package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"strings"
)

// Runlog records. A runlog is a Journal of JSON lines, each discriminated
// by "type". These structs are its one definition: dsegen's engine and its
// -fleet coordinator write them through Journal.WriteRecord, dsereport
// decodes them (ignoring unknown fields), and ValidateRunlog checks a
// runlog against them. The per-config `config` record is the exception on
// the write side: the collection engine hand-encodes it on its hot path,
// and ConfigRecord is the definition that encoder's output is checked
// against. Writers set Type and pass every float through Round3. Field
// order is the key order on the wire; a field without omitempty is
// required.

// MetaRecord is a runlog's first line, identifying the run.
type MetaRecord struct {
	Type    string `json:"type"` // "meta"
	Version int    `json:"version"`
	Seed    int64  `json:"seed"`
	Samples int    `json:"samples"`
	// Workers is the resolved worker count; 0 for a coordinator, whose
	// fleet is discovered lease by lease.
	Workers int `json:"workers"`
	// Resumed counts the rows the collection journal held when the run
	// started: 0 on a fresh run.
	Resumed int `json:"resumed"`
	// Search is the adaptive proposer's digest; empty for fixed sweeps.
	Search       string   `json:"search,omitempty"`
	Apps         []string `json:"apps"`
	StallClasses []string `json:"stall_classes"`
	// Fabric is the coordinator's lease geometry; nil outside a fleet.
	Fabric *FabricMeta `json:"fabric,omitempty"`
}

// FabricMeta is a coordinator's lease geometry.
type FabricMeta struct {
	LeaseSize int   `json:"lease_size"`
	ExpiryMS  int64 `json:"expiry_ms"`
}

// HeartbeatRecord is a periodic progress sample; a coordinator's carries
// the fleet totals.
type HeartbeatRecord struct {
	Type       string  `json:"type"` // "heartbeat"
	ElapsedS   float64 `json:"elapsed_s"`
	Done       int     `json:"done"`
	Failed     int     `json:"failed"`
	Total      int     `json:"total"`
	RowsPerSec float64 `json:"rows_per_sec"`
	ETAS       float64 `json:"eta_s"`
	Cycles     int64   `json:"cycles"`
}

// BarrierRecord is one adaptive generation barrier and the proposer's
// cost breakdown of it.
type BarrierRecord struct {
	Type           string  `json:"type"` // "barrier"
	Gen            int     `json:"gen"`
	WallMs         float64 `json:"wall_ms"`
	PoolScored     int     `json:"pool_scored"`
	RefitMs        float64 `json:"refit_ms"`
	ScoreMs        float64 `json:"score_ms"`
	TreesRetrained int     `json:"trees_retrained"`
	TreesRetained  int     `json:"trees_retained"`
}

// LeaseRecord is one lease state transition (grant, expire, complete) on a
// coordinator.
type LeaseRecord struct {
	Type     string  `json:"type"` // "lease"
	Event    string  `json:"event"`
	Lease    int     `json:"lease"`
	Epoch    int     `json:"epoch"`
	Worker   string  `json:"worker,omitempty"`
	Lo       int     `json:"lo"`
	Hi       int     `json:"hi"`
	ElapsedS float64 `json:"elapsed_s"`
}

// UtilRecord is one fleet worker's cumulative utilization, written
// alongside each coordinator heartbeat.
type UtilRecord struct {
	Type       string  `json:"type"` // "util"
	Worker     string  `json:"worker"`
	ElapsedS   float64 `json:"elapsed_s"`
	Rows       int64   `json:"rows"`
	RowsPerSec float64 `json:"rows_per_sec"`
	BusyS      float64 `json:"busy_s"`
	UpS        float64 `json:"up_s"`
	BusyFrac   float64 `json:"busy_frac"`
	LastSeenS  float64 `json:"last_seen_s"`
}

// ConfigRecord is one completed configuration. Decode-only: the engine
// writes it by hand (orchestrate's appendConfigRecord) in this key order.
type ConfigRecord struct {
	Type  string `json:"type"` // "config"
	Index int    `json:"index"`
	// Gen is the proposing generation; adaptive runs only.
	Gen    int     `json:"gen,omitempty"`
	WallMs float64 `json:"wall_ms"`
	Cycles int64   `json:"cycles"`
	Failed bool    `json:"failed"`
	Err    string  `json:"err,omitempty"`
	// Eval and Confidence carry a hybrid run's routing decision:
	// "predicted" with the model's confidence, or "escalated".
	Eval       string      `json:"eval,omitempty"`
	Confidence float64     `json:"confidence,omitempty"`
	Apps       []ConfigApp `json:"apps"`
}

// ConfigApp is one application's run within a ConfigRecord. Stalls holds
// one cycle count per name in the meta record's stall_classes.
type ConfigApp struct {
	App    string  `json:"app"`
	WallMs float64 `json:"wall_ms"`
	Cycles int64   `json:"cycles"`
	Stalls []int64 `json:"stalls"`
}

// SummaryRecord is a completed runlog's last line.
type SummaryRecord struct {
	Type         string  `json:"type"` // "summary"
	Rows         int     `json:"rows"`
	Failed       int     `json:"failed"`
	ElapsedS     float64 `json:"elapsed_s"`
	JournalLines int64   `json:"journal_lines"`
	JournalBytes int64   `json:"journal_bytes"`
}

// Round3 rounds v to the runlog's precision, three decimals: milliseconds
// of a value in seconds. JSON has no NaN or Inf, so NaN and absurd
// magnitudes read 0.
func Round3(v float64) float64 {
	if v != v || v > 1e18 || v < -1e18 {
		return 0
	}
	return math.Round(v*1000) / 1000
}

// runlogRecords maps each record type to its struct: the runlog's schema.
var runlogRecords = map[string]reflect.Type{
	"meta":      reflect.TypeFor[MetaRecord](),
	"config":    reflect.TypeFor[ConfigRecord](),
	"heartbeat": reflect.TypeFor[HeartbeatRecord](),
	"barrier":   reflect.TypeFor[BarrierRecord](),
	"lease":     reflect.TypeFor[LeaseRecord](),
	"util":      reflect.TypeFor[UtilRecord](),
	"summary":   reflect.TypeFor[SummaryRecord](),
}

// RunlogTypes returns the record types ValidateRunlog knows, sorted.
func RunlogTypes() []string {
	types := make([]string, 0, len(runlogRecords))
	for t := range runlogRecords {
		types = append(types, t)
	}
	sort.Strings(types)
	return types
}

// ValidateRunlog checks a complete runlog against the record structs and
// returns how many records of each type it holds. Every line must be one
// record of a known type, carrying each of its struct's fields that lacks
// omitempty (nested structs included), no other key, no null and only
// values of the field's JSON type. The meta record comes first and only
// once, the summary last and only once, the summary's journal_lines counts
// the lines before it, and each app of each config record has one stall
// entry per meta stall class. Every type named in require must appear at
// least once.
func ValidateRunlog(r io.Reader, require ...string) (map[string]int, error) {
	for _, t := range require {
		if runlogRecords[t] == nil {
			return nil, fmt.Errorf("runlog: required type %q is not a record type", t)
		}
	}
	counts := map[string]int{}
	var meta *MetaRecord
	var summary *SummaryRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<24)
	line := 0
	for sc.Scan() {
		line++
		if summary != nil {
			return nil, fmt.Errorf("runlog line %d: record after the summary", line)
		}
		typ, rec, err := decodeRecord(bytes.TrimSpace(sc.Bytes()))
		if err != nil {
			return nil, fmt.Errorf("runlog line %d: %w", line, err)
		}
		if (line == 1) != (typ == "meta") {
			return nil, fmt.Errorf("runlog line %d: %s record, want exactly one meta record, first", line, typ)
		}
		counts[typ]++
		switch rec := rec.(type) {
		case *MetaRecord:
			meta = rec
		case *ConfigRecord:
			for i, app := range rec.Apps {
				if len(app.Stalls) != len(meta.StallClasses) {
					return nil, fmt.Errorf("runlog line %d: apps[%d] has %d stall entries, meta declares %d",
						line, i, len(app.Stalls), len(meta.StallClasses))
				}
			}
		case *SummaryRecord:
			if rec.JournalLines != int64(line-1) {
				return nil, fmt.Errorf("runlog line %d: summary says %d journal lines, %d precede it",
					line, rec.JournalLines, line-1)
			}
			summary = rec
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("runlog: %w", err)
	}
	if line == 0 {
		return nil, errors.New("runlog: empty")
	}
	if summary == nil {
		return nil, errors.New("runlog: no summary record")
	}
	for _, t := range require {
		if counts[t] == 0 {
			return nil, fmt.Errorf("runlog: no %q records", t)
		}
	}
	return counts, nil
}

// decodeRecord checks one runlog line against its record struct and
// returns the record's type and its decoded struct.
func decodeRecord(line []byte) (string, any, error) {
	if len(line) == 0 {
		return "", nil, errors.New("empty line")
	}
	var head struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(line, &head); err != nil {
		return "", nil, err
	}
	t := runlogRecords[head.Type]
	if t == nil {
		return "", nil, fmt.Errorf("unknown record type %q", head.Type)
	}
	if err := checkKeys(line, t, head.Type); err != nil {
		return "", nil, err
	}
	rec := reflect.New(t).Interface()
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(rec); err != nil {
		return "", nil, fmt.Errorf("%s: %w", head.Type, err)
	}
	return head.Type, rec, nil
}

// checkKeys walks raw alongside type t and makes the checks a strict
// decode does not: no value is null, every struct field without omitempty
// is present, and a struct is a JSON object. where names raw in errors.
func checkKeys(raw json.RawMessage, t reflect.Type, where string) error {
	if string(raw) == "null" {
		return fmt.Errorf("%s: null", where)
	}
	switch t.Kind() {
	case reflect.Pointer:
		return checkKeys(raw, t.Elem(), where)
	case reflect.Slice:
		var items []json.RawMessage
		if json.Unmarshal(raw, &items) != nil {
			return nil // not an array: the strict decode names the field
		}
		for i, item := range items {
			if err := checkKeys(item, t.Elem(), fmt.Sprintf("%s[%d]", where, i)); err != nil {
				return err
			}
		}
	case reflect.Struct:
		var obj map[string]json.RawMessage
		if json.Unmarshal(raw, &obj) != nil {
			return fmt.Errorf("%s: not an object", where)
		}
		for i := 0; i < t.NumField(); i++ {
			name, opts, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
			v, ok := obj[name]
			if !ok {
				if opts != "omitempty" {
					return fmt.Errorf("%s: missing required field %q", where, name)
				}
				continue
			}
			if err := checkKeys(v, t.Field(i).Type, where+"."+name); err != nil {
				return err
			}
		}
	}
	return nil
}
