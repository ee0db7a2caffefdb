// Package fabric is the distributed sweep fabric: a lease coordinator
// (dsegen -fleet) that parcels a collection run's contiguous config-index
// ranges out to dsegen -worker processes over HTTP one lease at a time,
// survives worker loss through heartbeat-driven lease expiry and
// reassignment, and streams every uploaded row into one journal that
// compacts into the dataset. The journal
// is the one a local dsegen run writes, opened by the same policy: a
// restarted coordinator resumes it, as a rerun local run does.
//
// The fabric inherits the repo's standing correctness bar and extends it
// across machines: because every configuration is derived independently
// from (seed, index) and simulated deterministically, the merged fleet
// dataset is byte-identical to a single-process sweep at any fleet size —
// including fleets where workers are killed mid-lease and their ranges
// reassigned. Identity is enforced at the door: a worker whose seed,
// sample count, suite or column layout disagrees with the coordinator's is
// rejected before it can contribute a row.
package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"

	"armdse/internal/orchestrate"
	"armdse/internal/params"
	"armdse/internal/workload"
)

// Spec identifies the run every worker must agree on: the sampling stream
// (seed, samples, suite scale) plus the exact column layout rows are
// journaled under. Workers fetch it from GET /spec, rebuild the same
// columns locally, and refuse to serve a coordinator whose layout differs
// from their own build — the fabric's version-skew guard.
type Spec struct {
	Seed    int64 `json:"seed"`
	Samples int   `json:"samples"`
	// Paper selects the paper-scale workload inputs (dsegen -paper).
	Paper bool `json:"paper"`
	// Meta is the journal identity stamp (the _meta: header field) the
	// run's journal is written under.
	Meta string `json:"meta"`
	// Features, Apps and Aux are the journal column layout, in order.
	Features []string `json:"features"`
	Apps     []string `json:"apps"`
	Aux      []string `json:"aux"`
}

// NewSpec builds the run spec for a collection of samples configurations
// from seed over the test or paper suite — the coordinator's single source
// of truth.
func NewSpec(seed int64, samples int, paper bool) Spec {
	suite := workload.TestSuite()
	if paper {
		suite = workload.PaperSuite()
	}
	apps := orchestrate.SuiteNames(suite)
	return Spec{
		Seed:     seed,
		Samples:  samples,
		Paper:    paper,
		Meta:     orchestrate.RunMeta(seed, samples, paper, "", ""),
		Features: params.FeatureNames(),
		Apps:     apps,
		Aux:      orchestrate.StallColumns(apps),
	}
}

// Suite returns the workload suite the spec describes.
func (s Spec) Suite() []workload.Workload {
	if s.Paper {
		return workload.PaperSuite()
	}
	return workload.TestSuite()
}

// ColumnsDigest fingerprints a column layout (FNV-1a over the
// length-prefixed names); workers send it with every lease request so a
// coordinator can reject version skew that Meta alone would miss.
func ColumnsDigest(features, apps, aux []string) string {
	h := fnv.New64a()
	for _, set := range [][]string{features, apps, aux} {
		fmt.Fprintf(h, "%d:", len(set))
		for _, n := range set {
			fmt.Fprintf(h, "%d:%s", len(n), n)
		}
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// Digest returns the spec's own column digest.
func (s Spec) Digest() string { return ColumnsDigest(s.Features, s.Apps, s.Aux) }

// LeaseRequest asks the coordinator for a range to work on.
type LeaseRequest struct {
	// Worker names the requesting process (host:pid); it appears in the
	// coordinator's status view, runlog and lease table.
	Worker string `json:"worker"`
	// Meta must equal the coordinator spec's Meta.
	Meta string `json:"meta"`
	// Columns must equal the coordinator spec's column digest.
	Columns string `json:"columns"`
}

// Lease is one granted assignment: simulate global indices [Lo, Hi),
// heartbeating within ExpiryMS, then upload every row in one advance.
type Lease struct {
	ID int `json:"id"`
	// Epoch is the assignment generation: it increments every time the
	// lease is (re)granted, and requests carrying a stale epoch are
	// rejected — the zombie-worker guard.
	Epoch int `json:"epoch"`
	Lo    int `json:"lo"`
	Hi    int `json:"hi"`
	// ExpiryMS is the heartbeat deadline: a lease not advanced or
	// heartbeat within this window is expired and requeued.
	ExpiryMS int64 `json:"expiry_ms"`
}

// LeaseResponse answers a lease request. Exactly one of Done, Wait or
// Lease is meaningful: Done means the run is complete and the worker
// should exit; Wait means nothing is grantable right now (retry later);
// otherwise Lease holds the assignment.
type LeaseResponse struct {
	Done  bool   `json:"done,omitempty"`
	Wait  bool   `json:"wait,omitempty"`
	Lease *Lease `json:"lease,omitempty"`
}

// WireRow is one completed configuration on the wire. Floats round-trip
// exactly through JSON (shortest-representation encoding), so journaled
// rows are byte-identical to locally-simulated ones. Targets and Aux are
// ordered by the spec's Apps and Aux columns; a failed row carries only
// its features.
type WireRow struct {
	Index    int       `json:"index"`
	Failed   bool      `json:"failed,omitempty"`
	Cycles   int64     `json:"cycles,omitempty"`
	Features []float64 `json:"features"`
	Targets  []float64 `json:"targets,omitempty"`
	Aux      []float64 `json:"aux,omitempty"`
}

// AdvanceRequest uploads a lease's rows and completes it: the rows must
// cover exactly the lease's [Lo, Hi), in index order.
type AdvanceRequest struct {
	LeaseID int       `json:"lease_id"`
	Epoch   int       `json:"epoch"`
	Worker  string    `json:"worker"`
	Rows    []WireRow `json:"rows"`
	// Obs optionally piggybacks the worker's compressed telemetry snapshot
	// (EncodeTelemetry). It is pure observability: the coordinator journals
	// and exports it but it never touches lease state or dataset bytes.
	Obs []byte `json:"obs,omitempty"`
}

// HeartbeatRequest refreshes a lease's deadline while its worker simulates
// it.
type HeartbeatRequest struct {
	LeaseID int    `json:"lease_id"`
	Epoch   int    `json:"epoch"`
	Worker  string `json:"worker"`
	// Obs optionally piggybacks the worker's compressed telemetry snapshot,
	// exactly as on AdvanceRequest.
	Obs []byte `json:"obs,omitempty"`
}

// decodeStrict decodes JSON into v rejecting unknown fields and trailing
// garbage — wire messages are exact, so anything else is a protocol error.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("fabric: trailing data after message")
	}
	return nil
}

// DecodeLeaseRequest parses and validates a lease request.
func DecodeLeaseRequest(data []byte) (LeaseRequest, error) {
	var req LeaseRequest
	if err := decodeStrict(data, &req); err != nil {
		return LeaseRequest{}, fmt.Errorf("fabric: bad lease request: %w", err)
	}
	if req.Worker == "" {
		return LeaseRequest{}, fmt.Errorf("fabric: lease request names no worker")
	}
	if req.Meta == "" {
		return LeaseRequest{}, fmt.Errorf("fabric: lease request carries no identity stamp")
	}
	return req, nil
}

// DecodeAdvanceRequest parses and validates an advance request: rows must
// be present and structurally sound (indices non-negative and strictly
// ascending, features present, failed rows payload-free) before they are
// checked against any lease state.
func DecodeAdvanceRequest(data []byte) (AdvanceRequest, error) {
	var req AdvanceRequest
	if err := decodeStrict(data, &req); err != nil {
		return AdvanceRequest{}, fmt.Errorf("fabric: bad advance request: %w", err)
	}
	if req.LeaseID < 0 || req.Epoch < 1 {
		return AdvanceRequest{}, fmt.Errorf("fabric: advance lease=%d epoch=%d out of range", req.LeaseID, req.Epoch)
	}
	if req.Worker == "" {
		return AdvanceRequest{}, fmt.Errorf("fabric: advance names no worker")
	}
	if len(req.Rows) == 0 {
		return AdvanceRequest{}, fmt.Errorf("fabric: advance carries no rows")
	}
	last := -1
	for i, r := range req.Rows {
		if r.Index <= last {
			return AdvanceRequest{}, fmt.Errorf("fabric: advance row %d index %d: indices must be non-negative and strictly ascending", i, r.Index)
		}
		last = r.Index
		if len(r.Features) == 0 {
			return AdvanceRequest{}, fmt.Errorf("fabric: advance row %d has no features", i)
		}
		if r.Failed && (len(r.Targets) != 0 || len(r.Aux) != 0) {
			return AdvanceRequest{}, fmt.Errorf("fabric: advance row %d is failed but carries payload", i)
		}
	}
	return req, nil
}

// DecodeHeartbeatRequest parses and validates a heartbeat.
func DecodeHeartbeatRequest(data []byte) (HeartbeatRequest, error) {
	var req HeartbeatRequest
	if err := decodeStrict(data, &req); err != nil {
		return HeartbeatRequest{}, fmt.Errorf("fabric: bad heartbeat: %w", err)
	}
	if req.LeaseID < 0 || req.Epoch < 1 {
		return HeartbeatRequest{}, fmt.Errorf("fabric: heartbeat lease=%d epoch=%d out of range", req.LeaseID, req.Epoch)
	}
	if req.Worker == "" {
		return HeartbeatRequest{}, fmt.Errorf("fabric: heartbeat names no worker")
	}
	return req, nil
}
