#!/bin/sh
# fleet_smoke.sh — end-to-end smoke check for the sharded scheduling
# fleet (`make fleet-smoke`, wired into the tier-1 `check` gate).
#
# Builds vcschedd, vcrouter and vcload under the race detector, starts
# three shards on ephemeral ports and the router in front of them, and
# replays duplicate-heavy generated traffic through the router:
#
#   - vcload exits 0 (zero hard failures, lost requests included);
#   - the aggregate dedup rate (cache hits + coalesced, as seen through
#     the router) clears a floor that only holds if duplicates keep
#     landing on the shard that already cached their fingerprint;
#   - the router and every shard drain cleanly on SIGTERM (exit 0,
#     "drained" marker in each log).
set -eu

GO="${GO:-go}"
VERSION="${VERSION:-dev}"
SHARDS=3
GEN=24
REQUESTS=120
DUP=0.8

tmp="$(mktemp -d)"
router_pid=""
shard_pids=""
cleanup() {
    for pid in $router_pid $shard_pids; do
        if kill -0 "$pid" 2>/dev/null; then
            kill -KILL "$pid" 2>/dev/null || true
        fi
    done
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

echo "fleet-smoke: building vcschedd, vcrouter and vcload (-race, version $VERSION)"
for cmd in vcschedd vcrouter vcload; do
    $GO build -race -ldflags "-X vcsched/internal/version.Version=$VERSION" \
        -o "$tmp/$cmd" ./cmd/$cmd
done

wait_addr() { # wait_addr <file> <pid> <log> <what>
    i=0
    while [ ! -s "$1" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "fleet-smoke: $4 never wrote its address file" >&2
            cat "$3" >&2
            exit 1
        fi
        if ! kill -0 "$2" 2>/dev/null; then
            echo "fleet-smoke: $4 died on startup" >&2
            cat "$3" >&2
            exit 1
        fi
        sleep 0.1
    done
}

backends=""
s=0
while [ "$s" -lt "$SHARDS" ]; do
    "$tmp/vcschedd" -addr 127.0.0.1:0 -addr-file "$tmp/shard$s.addr" \
        2>"$tmp/shard$s.log" &
    shard_pids="$shard_pids $!"
    s=$((s + 1))
done
s=0
for pid in $shard_pids; do
    wait_addr "$tmp/shard$s.addr" "$pid" "$tmp/shard$s.log" "shard $s"
    backends="$backends${backends:+,}http://$(cat "$tmp/shard$s.addr")"
    s=$((s + 1))
done
echo "fleet-smoke: $SHARDS shards up: $backends"

"$tmp/vcrouter" -backends "$backends" -addr 127.0.0.1:0 \
    -addr-file "$tmp/router.addr" -health-interval 250ms \
    2>"$tmp/router.log" &
router_pid=$!
wait_addr "$tmp/router.addr" "$router_pid" "$tmp/router.log" "router"
addr="$(cat "$tmp/router.addr")"
echo "fleet-smoke: router up on $addr"

# Duplicate-heavy load through the router: GEN distinct sources, 80% of
# requests re-submit an earlier one. The scenario lives under $tmp, not
# scenarios/, which vcslo loads whole. vcload exits non-zero on any hard
# failure, a lost request included.
cat >"$tmp/traffic.json" <<EOF
{
  "name": "fleet-smoke",
  "gen": $GEN,
  "seed": 7,
  "max_instrs": 24,
  "stages": [{"rps": 0, "requests": $REQUESTS}],
  "dup_rate": $DUP,
  "concurrency": 4
}
EOF
# (No pipe into tee: sh has no pipefail, so a pipe would hide vcload's
# exit status.)
"$tmp/vcload" -addr "$addr" -scenario "$tmp/traffic.json" >"$tmp/load.out" || {
    cat "$tmp/load.out"
    echo "fleet-smoke: vcload failed" >&2
    exit 1
}
cat "$tmp/load.out"

# The fleet-wide dedup floor: REQUESTS blocks over GEN distinct sources
# leaves at most GEN cold misses, so hits+coalesced must reach
# REQUESTS - GEN. A content-blind fleet would cold-miss each source on
# up to SHARDS shards; the threshold splits the two regimes.
dedup="$(awk '/cache-hits/ { gsub(/[(%)]/, ""); print $2 + $5 }' "$tmp/load.out")"
floor=$(( (REQUESTS - SHARDS * GEN + REQUESTS - GEN) / 2 ))
if [ -z "$dedup" ] || [ "$dedup" -lt "$floor" ]; then
    echo "fleet-smoke: aggregate dedup $dedup below floor $floor (hits are not sticking to shards)" >&2
    exit 1
fi
echo "fleet-smoke: aggregate dedup $dedup/$REQUESTS (floor $floor)"

echo "fleet-smoke: sending SIGTERM to router and shards"
kill -TERM "$router_pid"
status=0
wait "$router_pid" || status=$?
if [ "$status" -ne 0 ] || ! grep -q drained "$tmp/router.log"; then
    echo "fleet-smoke: router exited $status or missed the drain marker" >&2
    cat "$tmp/router.log" >&2
    exit 1
fi
router_pid=""
s=0
for pid in $shard_pids; do
    kill -TERM "$pid"
    status=0
    wait "$pid" || status=$?
    if [ "$status" -ne 0 ] || ! grep -q drained "$tmp/shard$s.log"; then
        echo "fleet-smoke: shard $s exited $status or missed the drain marker" >&2
        cat "$tmp/shard$s.log" >&2
        exit 1
    fi
    s=$((s + 1))
done
shard_pids=""
echo "fleet-smoke: ok (fleet drained cleanly)"
