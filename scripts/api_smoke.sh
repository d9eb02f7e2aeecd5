#!/bin/sh
# End-to-end smoke of the v1 serving API with curl: start the daemon,
# wait for readiness (the /healthz 503-until-ready contract), exercise
# predict over both encodings, the model lifecycle (list/status/load/
# unload), and the error surface (404/405/400, the retired v0 /predict
# path included), asserting every status code. Invoked by `make api-smoke`, which builds
# the two binaries first.
set -eu

SERVE_BIN=${SERVE_BIN:-/tmp/cosmoflow-serve}
LOADGEN_BIN=${LOADGEN_BIN:-/tmp/cosmoflow-loadgen}
ADDR=127.0.0.1:18081
BASE=http://$ADDR
TMP=$(mktemp -d)

"$SERVE_BIN" -addr "$ADDR" -dim 16 -base 4 &
PID=$!
cleanup() {
    kill -TERM "$PID" 2>/dev/null || true
    wait "$PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

# Readiness: /healthz answers 503 while the model loads, 200 once the
# checkpoint is in and replicas are warmed — the poll is load-bearing.
ready=0
for _ in $(seq 1 100); do
    if curl -sf "$BASE/healthz" >/dev/null 2>&1; then ready=1; break; fi
    sleep 0.2
done
[ "$ready" = 1 ] || { echo "FAIL: daemon never became ready"; exit 1; }

expect() {
    want=$1; shift
    got=$(curl -s -o "$TMP/body" -w '%{http_code}' "$@") || {
        echo "FAIL: curl $* errored"; exit 1; }
    if [ "$got" != "$want" ]; then
        echo "FAIL: want $want got $got: curl $*"
        cat "$TMP/body"; echo
        exit 1
    fi
}

# Model listing and status.
expect 200 "$BASE/v1/models"
grep -q '"state":"ready"' "$TMP/body" || { echo "FAIL: default model not ready in list"; exit 1; }
expect 200 "$BASE/v1/models/default"
expect 404 "$BASE/v1/models/nope"

# Method discipline: 405 + Allow on every route.
expect 405 -X PATCH "$BASE/v1/models"
expect 405 -X POST "$BASE/v1/models/default"
expect 405 -X GET "$BASE/v1/models/default:predict"
expect 405 -X POST "$BASE/healthz"
curl -s -o /dev/null -D "$TMP/hdrs" -X GET "$BASE/v1/models/default:predict"
grep -iq '^allow: *POST' "$TMP/hdrs" || { echo "FAIL: Allow header missing on 405"; cat "$TMP/hdrs"; exit 1; }

# Predict over both encodings, raw curl against dumped bodies.
"$LOADGEN_BIN" -dump-body "$TMP/req.json" -wire json -dim 16 >/dev/null
"$LOADGEN_BIN" -dump-body "$TMP/req.bin" -wire binary -dim 16 >/dev/null
expect 200 -X POST -H 'Content-Type: application/json' \
    --data-binary @"$TMP/req.json" "$BASE/v1/models/default:predict"
grep -q '"omega_m"' "$TMP/body" || { echo "FAIL: JSON predict body"; exit 1; }
expect 200 -X POST -H 'Content-Type: application/x-cosmoflow-tensor' \
    --data-binary @"$TMP/req.bin" "$BASE/v1/models/default:predict"
expect 200 -X POST -H 'Content-Type: application/x-cosmoflow-tensor' \
    -H 'Accept: application/x-cosmoflow-tensor' \
    --data-binary @"$TMP/req.bin" "$BASE/v1/models/default:predict"
head -c 4 "$TMP/body" | grep -q 'CFT1' || { echo "FAIL: binary response not a tensor frame"; exit 1; }

# Error surface: bad volume, bad frame, bad media type, and the retired
# v0 /predict path answering the 404 envelope.
expect 400 -X POST -H 'Content-Type: application/json' \
    --data '{"voxels":[1,2,3]}' "$BASE/v1/models/default:predict"
expect 400 -X POST -H 'Content-Type: application/x-cosmoflow-tensor' \
    --data 'garbage' "$BASE/v1/models/default:predict"
expect 415 -X POST -H 'Content-Type: text/xml' \
    --data '<x/>' "$BASE/v1/models/default:predict"
expect 404 -X POST -H 'Content-Type: application/json' \
    --data-binary @"$TMP/req.json" "$BASE/predict"
grep -q '"NOT_FOUND"' "$TMP/body" || { echo "FAIL: /predict 404 body not the envelope"; exit 1; }

# Lifecycle: hot-load a second model, predict on it, unload it.
expect 200 -X PUT -H 'Content-Type: application/json' \
    --data '{"input_dim":16,"base_channels":2,"replicas":1}' "$BASE/v1/models/alt"
expect 200 "$BASE/v1/models/alt"
expect 200 -X POST -H 'Content-Type: application/json' \
    --data-binary @"$TMP/req.json" "$BASE/v1/models/alt:predict"
expect 200 -X DELETE "$BASE/v1/models/alt"
expect 404 -X DELETE "$BASE/v1/models/alt"
expect 400 -X PUT -H 'Content-Type: application/json' \
    --data '{"base_channels":2}' "$BASE/v1/models/alt"

# Closed-loop load through the typed client, both encodings; nonzero exit
# on any failed request.
"$LOADGEN_BIN" -addr "$BASE" -n 32 -c 4 -dim 16 -wire json
"$LOADGEN_BIN" -addr "$BASE" -n 32 -c 4 -dim 16 -wire binary

echo "api-smoke OK"
