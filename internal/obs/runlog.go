package obs

import "math"

// Runlog records. A runlog is a Journal of JSON lines, each discriminated
// by "type"; scripts/runlog.schema.json is the schema of record. These
// structs are the one Go definition of every record but the per-config
// `config` record, which the collection engine hand-encodes on its hot
// path: dsegen's engine and dsecoord's coordinator write them through
// Journal.WriteRecord, and dsereport decodes them (ignoring unknown
// fields). Writers set Type and pass every float through Round3. Field
// order is the key order on the wire.

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
	Chunk     int   `json:"chunk"`
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

// LeaseRecord is one lease state transition (grant, expire, steal,
// complete) on a coordinator.
type LeaseRecord struct {
	Type     string  `json:"type"` // "lease"
	Event    string  `json:"event"`
	Lease    int     `json:"lease"`
	Epoch    int     `json:"epoch"`
	Worker   string  `json:"worker,omitempty"`
	Lo       int     `json:"lo"`
	Hi       int     `json:"hi"`
	Cursor   int     `json:"cursor"`
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
