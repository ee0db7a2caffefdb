package fabric

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"

	"armdse/internal/obs"
)

// WorkerTelemetry is the observability payload a worker piggybacks on
// advance and heartbeat requests: its full registry snapshot plus the
// busy/uptime split the coordinator turns into utilization figures. The
// payload is advisory — dropping or rejecting it never affects lease
// state or dataset bytes.
type WorkerTelemetry struct {
	// BusyNs is cumulative wall time the worker spent simulating leases.
	BusyNs int64 `json:"busy_ns"`
	// UpNs is wall time since the worker process joined the fleet.
	UpNs int64 `json:"up_ns"`
	// Snap is the worker's obs registry snapshot.
	Snap obs.Snapshot `json:"snap"`
}

// maxTelemetryBytes bounds the decompressed telemetry payload — far above
// any real registry snapshot, low enough that a hostile heartbeat cannot
// balloon coordinator memory.
const maxTelemetryBytes = 8 << 20

// EncodeTelemetry renders the payload for the wire: canonical snapshot JSON,
// gzip-compressed (log2 histograms are mostly zero runs, so this is
// typically a 10-20x shrink).
func EncodeTelemetry(t WorkerTelemetry) ([]byte, error) {
	raw, err := json.Marshal(t)
	if err != nil {
		return nil, fmt.Errorf("fabric: encode telemetry: %w", err)
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(raw); err != nil {
		return nil, fmt.Errorf("fabric: compress telemetry: %w", err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("fabric: compress telemetry: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeTelemetry inverts EncodeTelemetry under the fabric's strict wire
// rules: the gzip stream must decompress within maxTelemetryBytes, the JSON
// must carry no unknown fields or trailing data, the busy/up counters must
// be non-negative with busy never exceeding up, and the snapshot must pass
// obs validation.
func DecodeTelemetry(data []byte) (WorkerTelemetry, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return WorkerTelemetry{}, fmt.Errorf("fabric: bad telemetry stream: %w", err)
	}
	raw, err := io.ReadAll(io.LimitReader(zr, maxTelemetryBytes+1))
	if err != nil {
		return WorkerTelemetry{}, fmt.Errorf("fabric: bad telemetry stream: %w", err)
	}
	if err := zr.Close(); err != nil {
		return WorkerTelemetry{}, fmt.Errorf("fabric: bad telemetry stream: %w", err)
	}
	if len(raw) > maxTelemetryBytes {
		return WorkerTelemetry{}, fmt.Errorf("fabric: telemetry exceeds %d bytes decompressed", maxTelemetryBytes)
	}
	var t WorkerTelemetry
	if err := decodeStrict(raw, &t); err != nil {
		return WorkerTelemetry{}, fmt.Errorf("fabric: bad telemetry: %w", err)
	}
	if t.BusyNs < 0 || t.UpNs < 0 || t.BusyNs > t.UpNs {
		return WorkerTelemetry{}, fmt.Errorf("fabric: telemetry busy_ns=%d up_ns=%d out of range", t.BusyNs, t.UpNs)
	}
	if err := t.Snap.Validate(); err != nil {
		return WorkerTelemetry{}, fmt.Errorf("fabric: bad telemetry snapshot: %w", err)
	}
	return t, nil
}
