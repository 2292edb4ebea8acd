#!/usr/bin/env bash
# Leftover-process check for the repository benchmark: snapshot the
# running pids, run a short `perfbench/run.sh` of the ingest-rules and
# batch-paper workloads, wait 2 s, and fail listing every process that
# appeared since the snapshot and is still alive — a pfdserved child,
# a batch child, or anything else a run started and did not reap.
#
# Run from the repo root (CI does). Builds land in .bench_build/ as for
# any perfbench run. Anything else that starts processes on the host
# while the check runs shows up too, so run it on a quiet machine.
set -euo pipefail

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

say() { echo "bench_leftovers: $*"; }

# ps_snapshot FILE writes "pid ppid args" lines, dropping the ps
# process itself (its pid is $! of the background launch) and kernel
# threads (kthreadd, pid 2, and its children), which come and go on
# their own.
ps_snapshot() {
  ps -e -o pid=,ppid=,args= >"$1" &
  local ps_pid=$!
  wait "$ps_pid"
  awk -v skip="$ps_pid" '$1 != skip && $1 != 2 && $2 != 2' "$1" >"$1.tmp" && mv "$1.tmp" "$1"
}

ps_snapshot "$workdir/before"

for w in ingest-rules batch-paper; do
  say "running $w for 2 s"
  if ! bash perfbench/run.sh --workload "$w" --seconds 2 >"$workdir/$w.out" 2>"$workdir/$w.err"; then
    say "$w run failed:"; tail -n 20 "$workdir/$w.err"; exit 1
  fi
done

sleep 2
ps_snapshot "$workdir/after"

awk 'NR == FNR { seen[$1] = 1; next } !($1 in seen)' "$workdir/before" "$workdir/after" >"$workdir/new"
if [ -s "$workdir/new" ]; then
  say "processes started during the runs are still alive:"
  cat "$workdir/new"
  exit 1
fi
say "no process outlived the runs"
