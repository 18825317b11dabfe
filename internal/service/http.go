package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
)

// maxRequestBytes caps a job submission's body, so one client cannot
// make the daemon buffer an arbitrarily large request. A DFG plus an
// architecture description is far smaller; larger bodies get 413.
const maxRequestBytes = 8 << 20

// Handler returns the server's HTTP API:
//
//	POST   /v1/jobs             submit a mapping job (JobRequest -> JobStatus)
//	GET    /v1/jobs/{id}        job lifecycle snapshot (JobStatus)
//	GET    /v1/jobs/{id}/result completed result (JobResult)
//	DELETE /v1/jobs/{id}        cancel a queued/running job
//	GET    /healthz             liveness ("ok", or 503 while draining)
//	GET    /metrics             Prometheus text exposition
//
// Errors are rendered as {"error": "..."} with the *Error status code;
// backpressure (429) and draining (503) responses carry a Retry-After
// header.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req JobRequest
		body := http.MaxBytesReader(w, r.Body, maxRequestBytes)
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				s.writeError(w, errf(http.StatusRequestEntityTooLarge,
					"request body exceeds %d bytes", tooBig.Limit))
				return
			}
			s.writeError(w, errf(400, "decoding request: %v", err))
			return
		}
		st, err := s.Submit(&req)
		if err != nil {
			s.writeError(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, st)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Job(r.PathValue("id"))
		if err != nil {
			s.writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		res, err := s.Result(r.PathValue("id"))
		if err != nil {
			s.writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Cancel(r.PathValue("id"))
		if err != nil {
			s.writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			w.Header().Set("Retry-After", strconv.Itoa(drainRetryAfter))
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.Metrics.Render(w)
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeError renders any failure as the wire error envelope, counting
// delivered Retry-After hints so backpressure is observable in /metrics.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	se := httpError(err)
	if se.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(se.RetryAfter))
		s.Metrics.RetryAfterSent.Add(1)
	}
	writeJSON(w, se.Code, map[string]string{"error": se.Message})
}

// httpError normalises a failure into a wire *Error. Typed service
// errors pass through (backpressure codes are guaranteed a Retry-After
// even if the producer forgot one); bare queue-full / shed / draining
// sentinels from other layers map to 429/503 with a Retry-After hint
// instead of a generic 5xx; anything else is a 500.
func httpError(err error) *Error {
	var se *Error
	if errors.As(err, &se) && se.Code != 0 {
		if (se.Code == http.StatusTooManyRequests || se.Code == http.StatusServiceUnavailable) && se.RetryAfter <= 0 {
			out := *se
			out.RetryAfter = 1
			return &out
		}
		return se
	}
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDeadlineUnservable):
		return &Error{Code: http.StatusTooManyRequests, Message: err.Error(), RetryAfter: 1, Err: err}
	case errors.Is(err, ErrDraining):
		return &Error{Code: http.StatusServiceUnavailable, Message: err.Error(), RetryAfter: drainRetryAfter, Err: err}
	}
	return &Error{Code: http.StatusInternalServerError, Message: err.Error()}
}
