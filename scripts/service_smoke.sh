#!/bin/sh
# service_smoke.sh — end-to-end smoke check for the scheduling service
# (`make service-smoke`, wired into the tier-1 `check` gate).
#
# Builds vcschedd and vcload under the race detector, starts the daemon
# on an ephemeral port, replays a traffic scenario (the checked-in
# reproducer corpus plus generated blocks, 50% duplicates) through
# vcload, and requires:
#
#   - vcload exits 0 (zero hard failures, lost requests included);
#   - the daemon drains cleanly on SIGTERM (exit 0).
set -eu

GO="${GO:-go}"
VERSION="${VERSION:-dev}"
CORPUS="internal/difftest/testdata/repros"

tmp="$(mktemp -d)"
daemon_pid=""
cleanup() {
    if [ -n "$daemon_pid" ] && kill -0 "$daemon_pid" 2>/dev/null; then
        kill -KILL "$daemon_pid" 2>/dev/null || true
    fi
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

echo "service-smoke: building vcschedd and vcload (-race, version $VERSION)"
$GO build -race -ldflags "-X vcsched/internal/version.Version=$VERSION" \
    -o "$tmp/vcschedd" ./cmd/vcschedd
$GO build -race -ldflags "-X vcsched/internal/version.Version=$VERSION" \
    -o "$tmp/vcload" ./cmd/vcload

"$tmp/vcschedd" -addr 127.0.0.1:0 -addr-file "$tmp/addr" 2>"$tmp/daemon.log" &
daemon_pid=$!

i=0
while [ ! -s "$tmp/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "service-smoke: daemon never wrote its address file" >&2
        cat "$tmp/daemon.log" >&2
        exit 1
    fi
    if ! kill -0 "$daemon_pid" 2>/dev/null; then
        echo "service-smoke: daemon died on startup" >&2
        cat "$tmp/daemon.log" >&2
        exit 1
    fi
    sleep 0.1
done
addr="$(cat "$tmp/addr")"
echo "service-smoke: daemon up on $addr"

# The corpus replay: every repro block plus 10 generated ones, 80
# requests at 50% duplicate rate through 4 connections. The scenario
# lives under $tmp, not scenarios/, which vcslo loads whole. vcload
# exits non-zero on any hard failure.
cat >"$tmp/traffic.json" <<EOF
{
  "name": "service-smoke",
  "corpus": "$CORPUS",
  "gen": 10,
  "seed": 7,
  "max_instrs": 24,
  "stages": [{"rps": 0, "requests": 80}],
  "dup_rate": 0.5,
  "concurrency": 4
}
EOF
"$tmp/vcload" -addr "$addr" -scenario "$tmp/traffic.json"

echo "service-smoke: sending SIGTERM"
kill -TERM "$daemon_pid"
status=0
wait "$daemon_pid" || status=$?
daemon_pid=""
if [ "$status" -ne 0 ]; then
    echo "service-smoke: daemon exited $status on SIGTERM" >&2
    cat "$tmp/daemon.log" >&2
    exit 1
fi
if ! grep -q drained "$tmp/daemon.log"; then
    echo "service-smoke: daemon log missing the drain marker" >&2
    cat "$tmp/daemon.log" >&2
    exit 1
fi
echo "service-smoke: ok (clean drain)"
