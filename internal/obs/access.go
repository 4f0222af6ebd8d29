package obs

// AccessRecord is one served request in the structured access log: the
// operational view of a request, joinable against the span log by trace
// ID. One JSON line per request, written by a JSONLFile and read back
// by ReadJSONL.
type AccessRecord struct {
	// TimeNs is the wall-clock completion time (Unix nanoseconds) — the
	// only wall timestamp in the pair of logs; span timestamps are
	// monotonic offsets from the tracer epoch.
	TimeNs int64 `json:"t_ns"`
	// Trace is the request's W3C trace ID — the join key to the span
	// log's root span for this request.
	Trace string `json:"trace"`
	// Endpoint is the server's short endpoint name ("predict", "rank",
	// "status", ...), matching the root span's name.
	Endpoint string `json:"endpoint"`
	// Status is the HTTP status code sent.
	Status int `json:"status"`
	// LatencyNs is the request's server-side latency in nanoseconds.
	LatencyNs int64 `json:"latency_ns"`
	// Outcome is the request's cache outcome when it computed something:
	// "cold" (this request led at least one computation), "coalesced"
	// (it waited on another request's in-flight computation), or
	// "cached" (every layer was an exact settled hit). Empty for
	// endpoints with nothing to cache and for failed requests.
	Outcome string `json:"outcome,omitempty"`
	// Shed names why admission refused the request ("queue_full" for
	// 429, "queue_deadline" for 503), empty when admitted.
	Shed string `json:"shed,omitempty"`
	// Bytes is the response body size in bytes (0 for a 304).
	Bytes int64 `json:"bytes"`
}
