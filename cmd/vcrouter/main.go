// Command vcrouter is the fleet front-end: it shards POST /v1/schedule
// traffic by content fingerprint across N vcschedd backends through a
// consistent-hash ring, so the fleet-wide result cache is a partition
// rather than N copies. Duplicate fingerprints coalesce in the router
// before they reach any shard; draining, unreachable or repeatedly
// failing shards are skipped (their keys spill to the next live ring
// successor) and take their keys back when they recover. The ring's
// 128 virtual nodes per backend and the per-shard breaker (3
// consecutive transport failures eject a shard for 5s) are fixed.
//
//	go run ./cmd/vcrouter -backends http://127.0.0.1:8457,http://127.0.0.1:8458
//
// The HTTP surface is byte-compatible with a single vcschedd (see
// internal/httpapi): clients point at the router and cannot tell the
// fleet from one daemon. /v1/statsz additionally aggregates per-shard
// snapshots into a fleet view with per-shard routing counters.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"vcsched/internal/httpapi"
	"vcsched/internal/machine"
	"vcsched/internal/router"
	"vcsched/internal/vcclient"
	"vcsched/internal/version"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8460", "listen address (port 0 = pick a free port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening (for harnesses)")
	backends := flag.String("backends", "", "comma-separated vcschedd base URLs (required)")
	machineKey := flag.String("machine", "2c1l", "default machine for fingerprinting requests that name none (match the shards)")
	seed := flag.Int64("seed", 1, "default pin seed for fingerprinting (match the shards)")
	steps := flag.Int("steps", 20000, "default step budget for fingerprinting (match the shards)")
	deadline := flag.Duration("deadline", 5*time.Second, "default deadline for coalesced followers")
	maxDeadline := flag.Duration("max-deadline", 60*time.Second, "cap on requested deadlines")
	retries := flag.Int("retries", 2, "per-block forward retries after the first try (walks the ring successors)")
	tryTimeout := flag.Duration("try-timeout", 2*time.Minute, "per-forward-attempt timeout")
	hedgeAfter := flag.Duration("hedge-after", 0, "hedge a slow forward against the next ring successor after this long (0 = off)")
	healthInterval := flag.Duration("health-interval", time.Second, "shard /v1/healthz poll period (negative = off)")
	drainTimeout := flag.Duration("drain-timeout", 60*time.Second, "how long SIGTERM waits for in-flight work")
	showVersion := flag.Bool("version", false, "print the version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println("vcrouter", version.String())
		return
	}
	if _, err := machine.ByKey(*machineKey); err != nil {
		fatal(err)
	}
	var urls []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			urls = append(urls, b)
		}
	}
	if len(urls) == 0 {
		fatal(fmt.Errorf("-backends is required (comma-separated vcschedd URLs)"))
	}

	rt, err := router.New(router.Config{
		Backends: urls,
		Defaults: httpapi.Defaults{MachineKey: *machineKey, PinSeed: *seed, MaxSteps: *steps},
		Client: vcclient.Config{
			TryTimeout: *tryTimeout,
			Retries:    *retries,
			HedgeAfter: *hedgeAfter,
		},
		HealthInterval:  *healthInterval,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
	})
	if err != nil {
		fatal(err)
	}

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
	fmt.Fprintf(os.Stderr, "vcrouter %s listening on %s, %d backends\n", version.String(), bound, len(urls))

	srv := &http.Server{Handler: rt.Mux()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "vcrouter: %v: draining\n", s)
	case err := <-errc:
		fatal(err)
	}

	// Drain: finish in-flight HTTP exchanges, then stop the router
	// (admission off, health pollers down). The shards drain on their
	// own SIGTERMs; the router never owns their lifecycle.
	done := make(chan struct{})
	go func() {
		defer close(done)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "vcrouter: shutdown:", err)
		}
		rt.Close()
	}()
	select {
	case <-done:
		fmt.Fprintln(os.Stderr, "vcrouter: drained")
	case <-time.After(*drainTimeout + 5*time.Second):
		fmt.Fprintln(os.Stderr, "vcrouter: drain timed out")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vcrouter:", err)
	os.Exit(1)
}
