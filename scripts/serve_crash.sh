#!/usr/bin/env bash
# Crash-recovery smoke for pfdserved's durable tenant state: boot the
# daemon with -data-dir, acknowledge a few foreground ingest batches,
# kill -9 the process in the middle of a large background ingest, then
# restart on the same data directory and require:
#
#   - the boot log reports the recovery,
#   - the recovered ruleset is intact (same rule count),
#   - the recovered row/violation counters equal exactly what was
#     acknowledged — the killed mid-stream batch was never acked, so it
#     must not be counted,
#   - /metrics shows durability active plus the recovery gauges,
#   - a fresh tenant on the recovered daemon still agrees with
#     pfdstream verdict-for-verdict on the same input.
#
# Needs: go, curl, python3. Run from the repo root (CI does).
set -euo pipefail

workdir=$(mktemp -d)
server_pid=""
bg_client=""
cleanup() {
  for pid in "$server_pid" "$bg_client"; do
    if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
      kill -9 "$pid" 2>/dev/null || true
    fi
  done
  rm -rf "$workdir"
}
trap cleanup EXIT

say() { echo "serve_crash: $*"; }

say "building binaries"
go build -o "$workdir/bin/" ./cmd/pfdserved ./cmd/pfdstream ./cmd/pfd ./cmd/datagen

say "generating the T13 workload"
"$workdir/bin/datagen" -out "$workdir/data" -scale 0.02 -dirt 0.05 -seed 7 -table T13
csv="$workdir/data/T13.csv"

say "mining the ruleset"
"$workdir/bin/pfd" discover -in "$csv" -rules "$workdir/rules.json" >/dev/null
rule_count=$(python3 -c "import json,sys; print(len(json.load(open(sys.argv[1]))['rules']))" "$workdir/rules.json")

# Slice the stream: three acknowledged foreground batches, then the
# first chunk of a background body that is killed mid-flight.
hdr=$(head -1 "$csv")
tail -n +2 "$csv" >"$workdir/body.csv"
body_rows=$(wc -l <"$workdir/body.csv")
fg_batch=$((body_rows / 4))
for i in 1 2 3; do
  { echo "$hdr"; sed -n "$(((i - 1) * fg_batch + 1)),$((i * fg_batch))p" "$workdir/body.csv"; } \
    >"$workdir/fg_$i.csv"
done
{ echo "$hdr"; sed -n "$((3 * fg_batch + 1)),\$p" "$workdir/body.csv"; } >"$workdir/bg.csv"

boot_server() {
  "$workdir/bin/pfdserved" -addr 127.0.0.1:0 -idle 10m -ring 1000000 \
    -data-dir "$workdir/state" -fsync >"$1" 2>&1 &
  server_pid=$!
  addr=""
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/.*listening on \(.*\)/\1/p' "$1" | head -1)
    [ -n "$addr" ] && break
    sleep 0.1
  done
  if [ -z "$addr" ]; then
    say "server never reported its address:"; cat "$1"; exit 1
  fi
}

say "booting pfdserved with -data-dir -fsync"
boot_server "$workdir/serve1.log"
say "server up at $addr"

curl -sfS -X PUT --data-binary @"$workdir/rules.json" \
  "http://$addr/v1/tenants/crash/ruleset" >/dev/null

say "acknowledging 3 foreground batches of $fg_batch rows"
acked=0
for i in 1 2 3; do
  curl -sfS -X POST -H 'Content-Type: text/csv' --data-binary @"$workdir/fg_$i.csv" \
    "http://$addr/v1/tenants/crash/tuples" >"$workdir/ack_$i.json"
  acked=$((acked + $(python3 -c "import json,sys; print(json.load(open(sys.argv[1]))['accepted'])" "$workdir/ack_$i.json")))
done
acked_report=$(curl -sfS "http://$addr/v1/tenants/crash/report")
say "acknowledged $acked rows"

# The background body is sent chunked and never finished: the client
# sends its first chunk, waits until the daemon's in-memory row count
# shows it has ingested rows of this body, reports that in a marker
# file, and then holds the body open. The kill lands only after the
# marker, so the batch is provably mid-flight: its body has not ended,
# so the daemon cannot have acknowledged or journaled it.
say "kill -9 mid-way through a background ingest"
python3 - "$addr" "$workdir/bg.csv" "$acked" "$workdir/midflight" <<'EOF' &
import http.client, json, sys, time
addr, bg, acked, marker = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
host, port = addr.rsplit(":", 1)
conn = http.client.HTTPConnection(host, int(port), timeout=60)
conn.putrequest("POST", "/v1/tenants/crash/tuples")
conn.putheader("Content-Type", "text/csv")
conn.putheader("Transfer-Encoding", "chunked")
conn.endheaders()
chunk = open(bg, "rb").read()
conn.send(b"%x\r\n%s\r\n" % (len(chunk), chunk))
deadline = time.monotonic() + 30
while True:
    probe = http.client.HTTPConnection(host, int(port), timeout=5)
    probe.request("GET", "/v1/tenants/crash/report")
    rows = json.load(probe.getresponse())["rows"]
    probe.close()
    if rows > acked:
        break
    if time.monotonic() > deadline:
        sys.exit(f"the daemon never ingested the background body ({rows} rows)")
    time.sleep(0.02)
with open(marker, "w") as f:
    f.write(f"{rows}\n")
try:
    conn.sock.recv(1)  # returns once the killed daemon's socket closes
except OSError:
    pass
EOF
bg_client=$!
for _ in $(seq 1 300); do
  [ -s "$workdir/midflight" ] && break
  kill -0 "$bg_client" 2>/dev/null || break
  sleep 0.1
done
[ -s "$workdir/midflight" ] ||
  { say "the background body never reached the daemon"; exit 1; }
say "killing with $(cat "$workdir/midflight") rows in memory, body still open"
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""
wait "$bg_client" 2>/dev/null || true
bg_client=""

say "restarting on the same data directory"
boot_server "$workdir/serve2.log"
say "server back up at $addr"

grep -q "recovered 1 tenants" "$workdir/serve2.log" ||
  { say "no recovery line in the boot log:"; cat "$workdir/serve2.log"; exit 1; }

say "checking recovered state against what was acknowledged"
curl -sfS "http://$addr/v1/tenants/crash/ruleset" >"$workdir/recovered_rules.json"
curl -sfS "http://$addr/v1/tenants/crash/report" >"$workdir/recovered_report.json"
curl -sfS "http://$addr/metrics" >"$workdir/metrics.txt"
python3 - "$workdir/recovered_rules.json" "$workdir/recovered_report.json" \
  "$rule_count" "$acked" <<EOF
import json, sys
rules = json.load(open(sys.argv[1]))
report = json.load(open(sys.argv[2]))
want_rules, acked = int(sys.argv[3]), int(sys.argv[4])
acked_report = json.loads('''$acked_report''')

assert len(rules["rules"]) == want_rules, \
    f'recovered ruleset has {len(rules["rules"])} rules, want {want_rules}'
assert report["rows"] == acked, \
    f'recovered {report["rows"]} rows; exactly {acked} were acknowledged ' \
    '(the killed batch was never acked and must not count)'
assert report["live_violations"] == acked_report["live_violations"], \
    f'recovered {report["live_violations"]} violations, ' \
    f'acknowledged {acked_report["live_violations"]}'
print(f'  recovered exactly the acknowledged state: {acked} rows, '
      f'{report["live_violations"]} violations, {want_rules} rules')
EOF

grep -q "^pfd_durability_state 1$" "$workdir/metrics.txt" ||
  { say "durability not active after recovery"; cat "$workdir/metrics.txt"; exit 1; }
grep -q "^pfd_recovered_tenants 1$" "$workdir/metrics.txt" ||
  { say "recovery gauges missing"; cat "$workdir/metrics.txt"; exit 1; }

say "fresh tenant on the recovered daemon must agree with pfdstream"
"$workdir/bin/pfdstream" -rules "$workdir/rules.json" -json \
  -in "$csv" >"$workdir/cli.json" 2>"$workdir/cli.log" || status=$?
status=${status:-0}
if [ "$status" -gt 1 ]; then
  say "pfdstream failed ($status):"; cat "$workdir/cli.log"; exit 1
fi
curl -sfS -X PUT --data-binary @"$workdir/rules.json" \
  "http://$addr/v1/tenants/fresh/ruleset" >/dev/null
curl -sfS -X POST -H 'Content-Type: text/csv' --data-binary @"$csv" \
  "http://$addr/v1/tenants/fresh/tuples" >/dev/null
curl -sfS "http://$addr/v1/tenants/fresh/report" >"$workdir/fresh.json"
python3 - "$workdir/cli.json" "$workdir/fresh.json" <<'EOF'
import json, sys
cli, fresh = json.load(open(sys.argv[1])), json.load(open(sys.argv[2]))
assert fresh["rows"] == cli["rows"], \
    f'fresh tenant validated {fresh["rows"]} rows, CLI {cli["rows"]}'
assert fresh["live_violations"] == cli["live_violations"], \
    f'verdicts diverge: fresh {fresh["live_violations"]}, CLI {cli["live_violations"]}'
print(f'  agree: {cli["rows"]} rows, {cli["live_violations"]} violations')
EOF

say "graceful shutdown"
kill -TERM "$server_pid"
shutdown_status=0
wait "$server_pid" || shutdown_status=$?
server_pid=""
if [ "$shutdown_status" -ne 0 ]; then
  say "server exited $shutdown_status on SIGTERM:"; cat "$workdir/serve2.log"; exit 1
fi

say "OK"
