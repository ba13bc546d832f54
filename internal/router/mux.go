package router

import (
	"net/http"

	"vcsched/internal/httpapi"
)

// Mux is the router's HTTP surface — the same three endpoints a
// vcschedd shard serves, built from the same httpapi pieces, so a
// client cannot tell a fleet from a single daemon:
//
//	POST /v1/schedule   shard-routed scheduling with the daemon's
//	                    200/422/429/400 verdicts
//	GET  /v1/healthz    503 "draining" when the router drains or no
//	                    live shard remains; "ok" otherwise
//	GET  /v1/statsz     aggregate fleet snapshot (see Stats)
func (r *Router) Mux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/schedule", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		wreq, ok := httpapi.DecodeWireRequest(w, req)
		if !ok {
			return
		}
		resp, err := r.Schedule(wreq)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		httpapi.WriteScheduleResponse(w, resp, r.RetryAfter)
	})
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, req *http.Request) {
		httpapi.HealthzHandler(w, r.Draining() || r.liveShards() == 0)
	})
	mux.HandleFunc("/v1/statsz", func(w http.ResponseWriter, req *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, r.Stats())
	})
	return mux
}
