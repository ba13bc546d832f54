// Command vcload replays the traffic of a load scenario (the JSON that
// cmd/vcslo runs in process, see internal/loadsim) against a vcschedd
// daemon or a vcrouter fleet over HTTP, and exits non-zero on any hard
// failure. Only traffic fields apply: a scenario that sets service,
// hollow, virtual_clock, overload, faults or fleet is refused, because
// the daemon at -addr is the system under test.
//
//	go run ./cmd/vcload -addr 127.0.0.1:8457 -scenario traffic.json
//
// Requests go through internal/vcclient: a per-try timeout
// (-try-timeout), up to -retries retries with backoff that honors the
// daemon's Retry-After hint, and hedging after -hedge-after. A request
// that cannot be delivered counts each of its blocks as an
// "unreachable" hard failure.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"vcsched/internal/loadsim"
	"vcsched/internal/vcclient"
	"vcsched/internal/version"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vcload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8457", "vcschedd or vcrouter address (host:port)")
	scenario := fs.String("scenario", "", "traffic-only scenario file to replay (required)")
	retries := fs.Int("retries", 2, "re-attempts after a failed or shed try (0 = none, negative rejected)")
	hedgeAfter := fs.Duration("hedge-after", 0, "hedge a try that has not answered within this duration (0 = off, negative rejected)")
	tryTimeout := fs.Duration("try-timeout", 2*time.Minute, "per-try timeout (0 = client default, negative rejected)")
	showVersion := fs.Bool("version", false, "print the version and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVersion {
		fmt.Fprintln(stdout, "vcload", version.String())
		return 0
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "vcload:", err)
		return 1
	}
	if *scenario == "" {
		return fail(fmt.Errorf("-scenario is required"))
	}
	sc, err := loadsim.LoadScenario(*scenario)
	if err != nil {
		return fail(err)
	}
	client, err := vcclient.New(vcclient.Config{
		BaseURL:    "http://" + *addr,
		TryTimeout: *tryTimeout,
		Retries:    *retries,
		HedgeAfter: *hedgeAfter,
		Seed:       sc.Seed,
	})
	if err != nil {
		return fail(err)
	}
	rep, err := loadsim.Replay(sc, client)
	if err != nil {
		return fail(err)
	}
	rep.WriteSummary(stdout)
	cs := client.Stats()
	fmt.Fprintf(stdout, "  client tries %d  retries %d  hedges %d  sheds-seen %d\n",
		cs.Tries, cs.Retries, cs.Hedges, cs.Sheds)
	if n := rep.HardFailures + rep.Injected; n > 0 {
		return fail(fmt.Errorf("%d hard failures", n))
	}
	return 0
}
