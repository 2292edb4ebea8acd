#!/usr/bin/env bash
# End-to-end smoke test for pfdserved: boot the daemon, load a ruleset
# mined from a T13 workload, stream the same dirty CSV through the HTTP
# ingest, and require the service's violation verdict to be identical
# to pfdstream's on the same input — the CLI and the daemon must agree,
# tuple for tuple. Finishes with a graceful-shutdown check: SIGTERM
# must drain and exit 0.
#
# Needs: go, curl, python3. Run from the repo root (CI does).
set -euo pipefail

workdir=$(mktemp -d)
server_pid=""
cleanup() {
  if [ -n "$server_pid" ] && kill -0 "$server_pid" 2>/dev/null; then
    kill -9 "$server_pid" 2>/dev/null || true
  fi
  rm -rf "$workdir"
}
trap cleanup EXIT

say() { echo "serve_smoke: $*"; }

say "building binaries"
go build -o "$workdir/bin/" ./cmd/pfdserved ./cmd/pfdstream ./cmd/pfd ./cmd/datagen

say "generating the T13 workload"
"$workdir/bin/datagen" -out "$workdir/data" -scale 0.02 -dirt 0.05 -seed 7 -table T13
csv="$workdir/data/T13.csv"

say "mining the ruleset"
"$workdir/bin/pfd" discover -in "$csv" -rules "$workdir/rules.json" >/dev/null

say "baseline: pfdstream -json over the same stream"
"$workdir/bin/pfdstream" -rules "$workdir/rules.json" -json \
  -in "$csv" >"$workdir/cli.json" 2>"$workdir/cli.log" || status=$?
# Exit 1 just means the stream raised violations — that's the point.
status=${status:-0}
if [ "$status" -gt 1 ]; then
  say "pfdstream failed ($status):"; cat "$workdir/cli.log"; exit 1
fi

say "booting pfdserved"
"$workdir/bin/pfdserved" -addr 127.0.0.1:0 -idle 10m -ring 1000000 \
  >"$workdir/serve.log" 2>&1 &
server_pid=$!

addr=""
for _ in $(seq 1 100); do
  addr=$(sed -n 's/.*listening on \(.*\)/\1/p' "$workdir/serve.log" | head -1)
  [ -n "$addr" ] && break
  sleep 0.1
done
if [ -z "$addr" ]; then
  say "server never reported its address:"; cat "$workdir/serve.log"; exit 1
fi
say "server up at $addr"

curl -sfS -X PUT --data-binary @"$workdir/rules.json" \
  "http://$addr/v1/tenants/smoke/ruleset" >/dev/null
curl -sfS -X POST -H 'Content-Type: text/csv' --data-binary @"$csv" \
  "http://$addr/v1/tenants/smoke/tuples" >"$workdir/ingest.json"
curl -sfS "http://$addr/v1/tenants/smoke/report" >"$workdir/served.json"
curl -sfS "http://$addr/metrics" >"$workdir/metrics.txt"

say "comparing the CLI report against the service report"
python3 - "$workdir/cli.json" "$workdir/served.json" "$workdir/ingest.json" <<'EOF'
import json, sys

cli = json.load(open(sys.argv[1]))
served = json.load(open(sys.argv[2]))
ingest = json.load(open(sys.argv[3]))

for rep, who in ((cli, "cli"), (served, "served"), (ingest, "ingest")):
    assert rep["format"] == "pfd-report" and rep["version"] == 1, f"{who}: bad envelope"

assert ingest["accepted"] == cli["rows"], \
    f'ingest accepted {ingest["accepted"]}, stream had {cli["rows"]} tuples'
assert served["rows"] == cli["rows"], \
    f'service validated {served["rows"]} rows, CLI {cli["rows"]}'
assert served["live_violations"] == cli["live_violations"], \
    f'violation counts diverge: service {served["live_violations"]}, CLI {cli["live_violations"]}'
assert served["violations"] == cli["violations"], \
    "violation sets diverge between the service and the CLI"
print(f'  agree: {cli["rows"]} rows, {cli["live_violations"]} violations, '
      f'{len(cli["violations"])} findings byte-identical')
EOF

grep -q 'pfd_tenant_rows_total{tenant="smoke"}' "$workdir/metrics.txt" ||
  { say "per-tenant metrics missing"; cat "$workdir/metrics.txt"; exit 1; }

say "graceful shutdown"
kill -TERM "$server_pid"
shutdown_status=0
wait "$server_pid" || shutdown_status=$?
server_pid=""
if [ "$shutdown_status" -ne 0 ]; then
  say "server exited $shutdown_status on SIGTERM:"; cat "$workdir/serve.log"; exit 1
fi
grep -q "drained" "$workdir/serve.log" ||
  { say "no drain line in the server log:"; cat "$workdir/serve.log"; exit 1; }

say "OK"
