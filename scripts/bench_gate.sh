#!/usr/bin/env bash
# Benchmark regression gate: run the watched go test benchmarks on the
# parent commit and on the change, alternating, and compare the two
# sides with cmd/benchdiff.
#
#   scripts/bench_gate.sh PARENT_DIR
#
# Run from the root of the change's checkout; PARENT_DIR is a checkout
# of the parent commit (CI adds a git worktree). Writes parent.txt and
# change.txt, the go test -bench output of each side, to the current
# directory, and exits with benchdiff's status.
#
# The machine's speed drifts over seconds to minutes, so each of the
# five rounds runs every watched benchmark once on each side, one right
# after the other: the two runs of a pair are seconds apart and see the
# same drift. The -bench regexp below is the watched set.
set -euo pipefail

parent=$(cd "$1" && pwd)
change=$(pwd)
bench='^Benchmark(Pattern.*|ViolationsVariablePFD|RepairDetect|StreamCheck|RulesetT13|DiscoverT13)$'
pkgs=(. internal/plan internal/discovery)

bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
for i in "${!pkgs[@]}"; do
  (cd "$parent" && go test -c -o "$bin/parent$i.test" "./${pkgs[i]}")
  go test -c -o "$bin/change$i.test" "./${pkgs[i]}"
done

: >"$change/parent.txt"
: >"$change/change.txt"
for round in 1 2 3 4 5; do
  # Which side runs first alternates too.
  order="parent change"
  if ((round % 2 == 0)); then order="change parent"; fi
  for i in "${!pkgs[@]}"; do
    # Both sides' benchmarks: one the change lacks still runs on the
    # parent, so benchdiff reports it missing.
    names=$(for side in parent change; do
      dir=${!side}
      (cd "$dir/${pkgs[i]}" && "$bin/$side$i.test" -test.list "$bench")
    done | sort -u)
    for name in $names; do
      for side in $order; do
        dir=${!side}
        (cd "$dir/${pkgs[i]}" && "$bin/$side$i.test" -test.run '^$' -test.bench "^$name\$" -test.benchmem) >>"$change/$side.txt"
      done
    done
  done
  echo "bench_gate: round $round of 5 done"
done
go run ./cmd/benchdiff -old parent.txt -new change.txt
