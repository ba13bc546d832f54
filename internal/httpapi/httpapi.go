// Package httpapi is the HTTP/JSON surface over internal/service,
// shared by the vcschedd daemon and the vcrouter fleet front-end so
// the two expose byte-identical endpoints:
//
//	POST /v1/schedule   schedule one or more .sb sources (see
//	                    service.WireRequest); answers 200, or 422 when
//	                    every block in the batch hard-failed (the
//	                    response names the error-taxonomy classes), or
//	                    429 with Retry-After when every block was shed,
//	                    or 400 on malformed input
//	GET  /v1/healthz    "ok" (503 "draining" during drain)
//	GET  /v1/statsz     counter snapshot, deterministic field order
package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/service"
)

// Defaults carries the per-request fallbacks requests may omit.
type Defaults struct {
	MachineKey string // machine.ByKey key for requests naming none
	PinSeed    int64  // live-in/live-out pin seed
	MaxSteps   int    // deduction step budget per scheduling attempt
}

// BuildRequests expands a wire request into one service request per
// superblock across all .sb sources. Both the daemon (to schedule) and
// the router (to fingerprint and shard) run their traffic through this
// one expansion, so a block routes on exactly the request a shard will
// rebuild.
func BuildRequests(wreq *service.WireRequest, d Defaults) ([]*service.Request, error) {
	key := wreq.Machine
	if key == "" {
		key = d.MachineKey
	}
	m, err := machine.ByKey(key)
	if err != nil {
		return nil, err
	}
	seed := wreq.PinSeed
	if seed == 0 {
		seed = d.PinSeed
	}
	steps := wreq.MaxSteps
	if steps == 0 {
		steps = d.MaxSteps
	}
	var reqs []*service.Request
	for i, src := range wreq.Blocks {
		blocks, err := ir.ReadAll(strings.NewReader(src))
		if err != nil {
			return nil, fmt.Errorf("blocks[%d]: %w", i, err)
		}
		for _, sb := range blocks {
			req := &service.Request{
				SB:       sb,
				Machine:  m,
				PinSeed:  seed,
				Deadline: time.Duration(wreq.TimeoutMS) * time.Millisecond,
				MaxSteps: steps,
			}
			if err := req.Validate(); err != nil {
				return nil, err
			}
			reqs = append(reqs, req)
		}
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("no superblocks in request")
	}
	return reqs, nil
}

// SchedulerMux builds the daemon handler over an in-process service.
// It is the vcschedd surface, split out so the daemon's main, its
// httptest-level tests and the router's drain test (which stands up
// real backends in-process) all serve the same handler.
func SchedulerMux(svc *service.Service, d Defaults) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/schedule", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		wreq, ok := DecodeWireRequest(w, r)
		if !ok {
			return
		}
		reqs, err := BuildRequests(wreq, d)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		results := svc.SubmitBatch(reqs)
		WriteScheduleResponse(w, service.BuildWireResponse(results), svc.RetryAfter)
	})
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		HealthzHandler(w, svc.Stats().Draining)
	})
	mux.HandleFunc("/v1/statsz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, svc.Stats())
	})
	return mux
}

// DecodeWireRequest parses a bounded /v1/schedule body, answering 400
// itself on malformed input.
func DecodeWireRequest(w http.ResponseWriter, r *http.Request) (*service.WireRequest, bool) {
	var wreq service.WireRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 32<<20))
	if err := dec.Decode(&wreq); err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return nil, false
	}
	return &wreq, true
}

// WriteScheduleResponse maps the batch verdict onto the transport: 422
// when every block hard-failed (the daemon-side analogue of cmd/
// vcsched exiting non-zero), 429 with Retry-After / Retry-After-Ms
// when every block was shed, 200 otherwise. retryAfter supplies the
// shed hint — one queue-drain estimate, derived from queue depth ×
// recent service time — and is only consulted on the 429 path. The
// standard Retry-After header is integer seconds rounded up so it is
// never 0; the millisecond-precision hint rides in Retry-After-Ms and
// in the body for clients that can use it.
func WriteScheduleResponse(w http.ResponseWriter, resp service.WireResponse, retryAfter func() time.Duration) {
	status := http.StatusOK
	switch {
	case resp.AllHardFailed:
		status = http.StatusUnprocessableEntity
	case resp.AllShed:
		status = http.StatusTooManyRequests
		var hint time.Duration
		if retryAfter != nil {
			hint = retryAfter()
		}
		resp.RetryAfterMS = int64(hint / time.Millisecond)
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int64((hint+time.Second-1)/time.Second)))
		w.Header().Set("Retry-After-Ms", fmt.Sprintf("%d", resp.RetryAfterMS))
	}
	WriteJSON(w, status, resp)
}

// HealthzHandler answers the liveness probe: 503 "draining" once the
// process started draining, "ok" otherwise.
func HealthzHandler(w http.ResponseWriter, draining bool) {
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// WriteJSON writes v indented with a JSON content type. Encoding is
// deterministic for the wire types (struct field order), so equal
// payloads are byte-identical — statsz stays diffable.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
