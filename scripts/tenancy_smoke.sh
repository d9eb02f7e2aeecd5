#!/bin/sh
# End-to-end smoke of the multi-tenant front door (DESIGN.md "Admission
# control").
#
# 3-class overload: 2 backends behind a gateway with a small
# admission capacity and three configured tenants (premium, standard,
# rate-limited best-effort). A premium-only run records the uncontended
# p99 baseline; then all three classes drive load concurrently. Asserts:
#   - premium p99 stays flat (<= 1.15x baseline + 30ms scheduler grace),
#   - the best-effort tenant sheds (429 + Retry-After; loadgen counts
#     them separately from failures),
#   - zero 5xx / transport failures for every class,
#   - the admin plane answers only through cosmoflow-gwctl (typed
#     client): operator-key gating, tenant hot reload, stats v2 schema.
# Invoked by `make tenancy-smoke`, which builds the four binaries first.
set -eu

SERVE_BIN=${SERVE_BIN:-/tmp/cosmoflow-serve}
GATEWAY_BIN=${GATEWAY_BIN:-/tmp/cosmoflow-gateway}
LOADGEN_BIN=${LOADGEN_BIN:-/tmp/cosmoflow-loadgen}
GWCTL_BIN=${GWCTL_BIN:-/tmp/cosmoflow-gwctl}
GW_ADDR=127.0.0.1:18190
GW=http://$GW_ADDR
B1=http://127.0.0.1:18191
B2=http://127.0.0.1:18192
OPKEY=smoke-operator-key
TMP=$(mktemp -d)

cleanup() {
    kill -TERM ${GWPID:-} ${P1:-} ${P2:-} 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

wait_ready() {
    for _ in $(seq 1 150); do
        if curl -sf "$1/healthz" >/dev/null 2>&1; then return 0; fi
        sleep 0.2
    done
    echo "FAIL: $1 never became ready"
    exit 1
}

gwctl() { "$GWCTL_BIN" -addr "$GW" -key "$OPKEY" "$@"; }

# tenant_field LABEL FIELD OUTFILE: pull one k=v metric off a loadgen
# "tenant LABEL ok=... shed=... fail=... p99_ms=..." line.
tenant_field() {
    awk -v lbl="$1" -v fld="$2" '
        $1 == "tenant" && $2 == lbl {
            for (i = 3; i <= NF; i++) {
                split($i, kv, "=")
                if (kv[1] == fld) print kv[2]
            }
        }' "$3"
}

# ---- 3-class overload ------------------------------------------------

cat > "$TMP/tenants.json" <<'EOF'
{"tenants": [
  {"key": "PK", "name": "premium-a", "class": "premium"},
  {"key": "SK", "name": "standard-a", "class": "standard"},
  {"key": "BK", "name": "besteffort-a", "class": "best-effort",
   "rate_per_sec": 50, "burst": 20}
]}
EOF

"$SERVE_BIN" -addr 127.0.0.1:18191 -dim 16 -base 4 -replicas 2 & P1=$!
"$SERVE_BIN" -addr 127.0.0.1:18192 -dim 16 -base 4 -replicas 2 & P2=$!
# Admission capacity 4 is deliberately far below what 2 backends could
# absorb: the overload run must queue, so the assertion exercises the
# priority queues rather than raw backend headroom.
"$GATEWAY_BIN" -addr "$GW_ADDR" -backends "$B1,$B2" \
    -probe-interval 200ms -admission-capacity 4 \
    -tenants "$TMP/tenants.json" -admin-key "$OPKEY" & GWPID=$!
wait_ready "$GW"

# Admin plane: only through the typed client (gwctl), and only with the
# operator key.
if "$GWCTL_BIN" -addr "$GW" -key wrong-key tenants >/dev/null 2>&1; then
    echo "FAIL: admin plane accepted a bad operator key"; exit 1
fi
gwctl tenants > "$TMP/tenants.out"
grep -q '"premium-a"' "$TMP/tenants.out" || {
    echo "FAIL: configured tenant missing from gwctl tenants"; exit 1; }
# Hot reload: a tenant added through the admin plane admits traffic on
# the very next request, no restart.
gwctl tenants put XK -name hotjoin -class standard >/dev/null
"$LOADGEN_BIN" -addr "$GW" -api-key XK -n 8 -c 2 -dim 16 >/dev/null || {
    echo "FAIL: hot-reloaded tenant was refused"; exit 1; }
gwctl tenants rm XK >/dev/null

# Baseline: premium alone, uncontended.
"$LOADGEN_BIN" -addr "$GW" -dim 16 -wire binary \
    -tenants "prem:PK:2:200" > "$TMP/base.out" 2>&1 || {
    cat "$TMP/base.out"; echo "FAIL: baseline run reported failures"; exit 1; }
cat "$TMP/base.out"
BASE_P99=$(tenant_field prem p99_ms "$TMP/base.out")
[ -n "$BASE_P99" ] || { echo "FAIL: no baseline p99 parsed"; exit 1; }

# Overload: all three classes at once; standard and best-effort swamp
# the 4-slot front door while premium must glide through.
"$LOADGEN_BIN" -addr "$GW" -dim 16 -wire binary \
    -tenants "prem:PK:2:200,std:SK:12:300,be:BK:12:300" > "$TMP/load.out" 2>&1 || {
    cat "$TMP/load.out"; echo "FAIL: overload run reported failures (5xx/transport)"; exit 1; }
cat "$TMP/load.out"

for lbl in prem std be; do
    fails=$(tenant_field "$lbl" fail "$TMP/load.out")
    [ "$fails" = 0 ] || { echo "FAIL: tenant $lbl had $fails failures (zero 5xx required)"; exit 1; }
done
BE_SHED=$(tenant_field be shed "$TMP/load.out")
[ "${BE_SHED:-0}" -gt 0 ] || {
    echo "FAIL: best-effort tenant was never shed (shed=$BE_SHED)"; exit 1; }
LOAD_P99=$(tenant_field prem p99_ms "$TMP/load.out")
# Flatness: 15% multiplicative bound plus a 30ms absolute grace — at
# millisecond-scale baselines, pure percentages would gate on scheduler
# jitter rather than on priority inversion, which is what this catches.
awk -v b="$BASE_P99" -v l="$LOAD_P99" 'BEGIN {
    limit = b * 1.15 + 30
    if (l > limit) {
        printf "FAIL: premium p99 %.2fms under overload vs %.2fms baseline (limit %.2fms)\n", l, b, limit
        exit 1
    }
    printf "premium p99 flat: %.2fms baseline -> %.2fms under 3-class overload (limit %.2fms)\n", b, l, limit
}'

# Per-tenant accounting made it to stats v2.
gwctl stats > "$TMP/stats.out"
grep -q '"schema": "cosmoflow-stats/v2"' "$TMP/stats.out" || {
    echo "FAIL: stats schema is not cosmoflow-stats/v2"; exit 1; }
grep -q '"besteffort-a"' "$TMP/stats.out" || {
    echo "FAIL: best-effort tenant missing from stats"; exit 1; }

kill -TERM "$GWPID" "$P1" "$P2" 2>/dev/null || true
wait "$GWPID" "$P1" "$P2" 2>/dev/null || true

echo "tenancy-smoke OK"
