package server

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// endpointMetrics holds one endpoint's instruments. It is resolved once at
// route-registration time (the mux closes over it; the fast loop indexes an
// array by opcode), so the record path is pointer-chasing plus atomics —
// no map lookup, no label rendering, no lock, no allocation.
//
// Latency goes into a log-bucketed obs.Histogram with exact counts: the
// /metrics quantiles cover every request ever served, not a recent sample
// window like the old 2048-entry ring, which silently forgot the early
// distribution under sustained load.
type endpointMetrics struct {
	name   string
	count  *obs.Counter
	errors *obs.Counter
	bytes  *obs.Counter
	lat    *obs.Histogram
}

// observe records one request.
func (ep *endpointMetrics) observe(d time.Duration, isErr bool, bytes int64) {
	ep.count.Inc()
	if isErr {
		ep.errors.Inc()
	}
	if bytes > 0 {
		ep.bytes.Add(uint64(bytes))
	}
	ep.lat.Record(d)
}

// metricsRecorder owns the per-endpoint instruments and their Prometheus
// registration. The mutex guards creation only; recording is lock-free.
type metricsRecorder struct {
	reg  *obs.Registry
	mu   sync.Mutex
	byEP map[string]*endpointMetrics
}

func newMetricsRecorder(reg *obs.Registry) *metricsRecorder {
	return &metricsRecorder{reg: reg, byEP: make(map[string]*endpointMetrics)}
}

// endpoint resolves (or creates) the named endpoint's instruments,
// registering its label set with the Prometheus families. Called at route
// registration, never per request.
func (m *metricsRecorder) endpoint(name string) *endpointMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ep := m.byEP[name]; ep != nil {
		return ep
	}
	labels := obs.Labels("endpoint", name)
	ep := &endpointMetrics{
		name:   name,
		count:  m.reg.Counter("renum_http_requests_total", "Requests served, by endpoint.", labels),
		errors: m.reg.Counter("renum_http_request_errors_total", "Requests that failed with a server-attributed error (client disconnects excluded).", labels),
		bytes:  m.reg.Counter("renum_http_response_bytes_total", "Response body bytes written, by endpoint.", labels),
		lat:    m.reg.Histogram("renum_http_request_duration_seconds", "Whole-request latency, by endpoint.", labels),
	}
	m.byEP[name] = ep
	return ep
}
