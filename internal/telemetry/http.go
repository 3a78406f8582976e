package telemetry

import (
	"encoding/json"
	"expvar"
	"net/http"
)

// Handler returns the opt-in live-exposition endpoint for a recorder:
//
//	GET /metrics   Prometheus text format
//	GET /snapshot  the Snapshot as JSON
//	GET /trace     Chrome trace_event JSON (load in chrome://tracing or
//	               ui.perfetto.dev)
//
// The handler is read-only and safe to serve while GEMM traffic is in
// flight. Callers mount it on whatever mux/port their service policy
// allows; the library never opens a listener itself.
func (r *Recorder) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = WritePrometheus(w, r.Families())
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(r.Snapshot())
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if _, err := r.WriteTrace(w); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		}
	})
	return mux
}

// PublishExpvar publishes the recorder under the given expvar name; the
// standard /debug/vars endpoint then serves the live Snapshot as JSON.
// expvar panics on duplicate names, so publish once per process per name.
func PublishExpvar(name string, r *Recorder) {
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}
