package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"
)

// ServeConfig parameterizes Serve.
type ServeConfig struct {
	Program  string        // log prefix, e.g. "greencelld"
	Addr     string        // listen address; ":0" picks an ephemeral port
	AddrFile string        // if set, the bound address is written here once listening
	Detail   string        // appended to the "listening on" log line
	Grace    time.Duration // how long a drain lets running jobs finish
}

// Serve is the process lifecycle of a job-service binary (greencelld,
// greencell-coord). It listens before journal replay, so the address is
// claimed and probes get an honest answer during recovery: a bootstrap
// handler serves liveness (200 /healthz) and not-ready (503 /readyz) until
// open — which builds the service and replays its journal — returns, and
// then the service's API is swapped in atomically. SIGINT/SIGTERM starts a
// graceful drain with the configured grace.
func Serve(cfg ServeConfig, open func() (*Service, error)) error {
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if cfg.AddrFile != "" {
		if err := os.WriteFile(cfg.AddrFile, []byte(bound+"\n"), 0o644); err != nil {
			return errors.Join(fmt.Errorf("writing -addr-file: %w", err), ln.Close())
		}
	}
	fmt.Fprintf(os.Stderr, "%s: listening on %s (%s)\n", cfg.Program, bound, cfg.Detail)

	var handler atomic.Value // http.Handler
	handler.Store(bootstrapHandler())
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	})}
	errCh := make(chan error, 1)
	go serveHTTP(hs, ln, errCh)

	svc, err := open()
	if err != nil {
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		return errors.Join(err, hs.Shutdown(sctx))
	}
	handler.Store(svc.Handler())

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-errCh:
		// The listener died on its own; take the jobs down with it.
		if cerr := svc.Close(); cerr != nil {
			return fmt.Errorf("serve: %v; close: %w", err, cerr)
		}
		return err
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "%s: %v: draining (grace %s)\n", cfg.Program, sig, cfg.Grace)
		dctx, dcancel := context.WithTimeout(context.Background(), cfg.Grace)
		defer dcancel()
		derr := svc.Drain(dctx)
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		if serr := hs.Shutdown(sctx); serr != nil && derr == nil {
			derr = serr
		}
		fmt.Fprintf(os.Stderr, "%s: drained\n", cfg.Program)
		return derr
	}
}

// bootstrapHandler serves the pre-replay window: alive but not ready.
func bootstrapHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		writeBody(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		writeBody(w, `{"status":"starting"}`)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		writeBody(w, `{"error":"starting: journal replay in progress"}`)
	})
	return mux
}

// writeBody writes a one-line JSON body to a probe response. A failed write
// means the prober went away; there is nobody left to tell.
func writeBody(w io.Writer, line string) {
	//lint:allow droppederr -- a failed probe-response write means the client is gone
	io.WriteString(w, line+"\n")
}

// serveHTTP runs the HTTP server and reports its exit; a separate function
// so the accept loop's goroutine shares nothing mutable with Serve.
func serveHTTP(hs *http.Server, ln net.Listener, errCh chan<- error) {
	err := hs.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	errCh <- err
}
