package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// apiError is an error with an HTTP status; handlers render it as the
// {"error": ...} body with that status. Non-apiError failures are 500s.
// retryAfter > 0 adds a Retry-After header (seconds) — the backpressure
// hint on 503 queue-full responses.
type apiError struct {
	code       int
	msg        string
	retryAfter int
}

func (e *apiError) Error() string { return e.msg }

// maxRequestBody bounds POST bodies; a job request is a small spec.
const maxRequestBody = 1 << 20

// Handler returns the job service's HTTP API, the same for the daemon and
// the coordinator, so greencellsim -submit and sweep -coord point at
// either by changing only the URL:
//
//	POST   /v1/jobs              submit a job (JobRequest body) → 202 JobStatus
//	GET    /v1/jobs              list jobs in submission order
//	GET    /v1/jobs/{id}         one job's status, progress, and result
//	DELETE /v1/jobs/{id}         cancel a queued or running job
//	GET    /v1/jobs/{id}/metrics live NDJSON metrics stream (?from_slot=N)
//	GET    /healthz              liveness probe (always 200 while serving)
//	GET    /readyz               readiness probe (503 while draining)
//	GET    /metrics              Prometheus text exposition
//
// plus the executor's own routes (the coordinator's GET /v1/workers).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/metrics", s.handleStream)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.exec.Routes(mux)
	return mux
}

// WriteJSON renders v with a status code; encoding failures are logged by
// the http server via the returned write error path (nothing to recover).
func WriteJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if _, err := w.Write(append(data, '\n')); err != nil {
		return // client went away; nothing useful to do
	}
}

// writeErr renders err as the API error body.
func writeErr(w http.ResponseWriter, err error) {
	var ae *apiError
	if errors.As(err, &ae) {
		if ae.retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(ae.retryAfter))
		}
		WriteJSON(w, ae.code, map[string]string{"error": ae.msg})
		return
	}
	WriteJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBody+1))
	if err != nil {
		writeErr(w, &apiError{code: 400, msg: fmt.Sprintf("reading body: %v", err)})
		return
	}
	if len(body) > maxRequestBody {
		writeErr(w, &apiError{code: 413, msg: "request body exceeds 1 MiB"})
		return
	}
	var req JobRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, &apiError{code: 400, msg: fmt.Sprintf("decoding job request: %v", err)})
		return
	}
	st, err := s.Submit(req)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+st.ID)
	WriteJSON(w, http.StatusAccepted, st)
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{"jobs": s.Jobs()})
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	st, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, st)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, st)
}

func (s *Service) handleStream(w http.ResponseWriter, r *http.Request) {
	fromSlot := 0
	if v := r.URL.Query().Get("from_slot"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, &apiError{code: 400, msg: fmt.Sprintf("from_slot: want a non-negative integer, got %q", v)})
			return
		}
		fromSlot = n
	}
	// Headers must precede the first streamed byte; errors after that can
	// only end the stream early.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	if err := s.Stream(r.Context(), r.PathValue("id"), w, fromSlot); err != nil {
		var ae *apiError
		if errors.As(err, &ae) {
			// Nothing streamed yet for apiErrors (404/410 are pre-stream).
			writeErr(w, err)
		}
		return // mid-stream failures (client gone, ctx done) just end it
	}
}

// handleHealthz is pure liveness: 200 as long as the process serves, even
// mid-drain — restarting a deliberately draining service would defeat the
// drain. Readiness (take this instance out of rotation) is /readyz.
func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: 503 once draining (stop routing new work
// here). The pre-replay window is covered by Serve's bootstrap handler,
// which answers 503 until journal replay completes, so a probing
// coordinator never routes leases at a daemon still recovering.
func (s *Service) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.WriteMetrics(w); err != nil {
		return // client went away mid-write
	}
}
