package obs

// ChromeEvent is one record of the Chrome trace-event format, which
// Perfetto (ui.perfetto.dev) and chrome://tracing load. Ts and Dur are in
// microseconds of trace time. Complete events (ph "X") carry a duration,
// counter events (ph "C") their series in Args, and metadata events
// (ph "M") name processes and threads.
type ChromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace is the top-level trace-event JSON object.
type ChromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}
