// Command vcschedd is the long-running scheduling daemon: an HTTP/JSON
// front end over internal/service. It amortizes the SG/DP search
// across traffic with a content-addressed result cache, coalesces
// concurrent duplicate submissions, sheds load when the bounded
// admission queue fills, and drains gracefully on SIGTERM.
//
//	go run ./cmd/vcschedd -addr 127.0.0.1:8457
//
// The HTTP surface (POST /v1/schedule, GET /v1/healthz, GET
// /v1/statsz) lives in internal/httpapi, shared with the vcrouter
// fleet front-end so the two cannot drift.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vcsched/internal/httpapi"
	"vcsched/internal/machine"
	"vcsched/internal/service"
	"vcsched/internal/version"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8457", "listen address (port 0 = pick a free port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening (for harnesses)")
	machineKey := flag.String("machine", "2c1l", "default machine for requests that name none")
	seed := flag.Int64("seed", 1, "default live-in/live-out pin seed")
	steps := flag.Int("steps", 20000, "default deduction step budget per scheduling attempt (0 = core default)")
	workers := flag.Int("workers", 4, "worker pool size; each worker runs one serial search at a time")
	queueDepth := flag.Int("queue", 0, "admission queue bound (0 = 4x workers); a full queue sheds")
	cacheEntries := flag.Int("cache", 0, "result cache entries (0 = 4096, negative = disable)")
	deadline := flag.Duration("deadline", 5*time.Second, "default per-request deadline")
	maxDeadline := flag.Duration("max-deadline", 60*time.Second, "cap on requested deadlines")
	drainTimeout := flag.Duration("drain-timeout", 60*time.Second, "how long SIGTERM waits for in-flight work")
	showVersion := flag.Bool("version", false, "print the version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println("vcschedd", version.String())
		return
	}
	if _, err := machine.ByKey(*machineKey); err != nil {
		fatal(err)
	}

	svc := service.New(service.Config{
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		CacheEntries:    *cacheEntries,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
	})
	mux := httpapi.SchedulerMux(svc, httpapi.Defaults{MachineKey: *machineKey, PinSeed: *seed, MaxSteps: *steps})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "vcschedd %s listening on %s\n", version.String(), bound)

	srv := &http.Server{Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "vcschedd: %v: draining\n", s)
	case err := <-errc:
		fatal(err)
	}

	// Drain: stop accepting connections, finish in-flight HTTP
	// exchanges (Shutdown), then drain the service's queue and worker
	// pool (Close). The watchdog turns a wedged drain into a non-zero
	// exit instead of a hang.
	done := make(chan struct{})
	go func() {
		defer close(done)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "vcschedd: shutdown:", err)
		}
		svc.Close()
	}()
	select {
	case <-done:
		fmt.Fprintln(os.Stderr, "vcschedd: drained")
	case <-time.After(*drainTimeout + 5*time.Second):
		fmt.Fprintln(os.Stderr, "vcschedd: drain timed out")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vcschedd:", err)
	os.Exit(1)
}
