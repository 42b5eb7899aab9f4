#!/usr/bin/env bash
# The repo benchmark. Run from the root of a checkout.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload, as the driver calls it (BENCHMARK.json);
#       the last line of standard output is the result object
#   benchmark/run.sh [--seed N] [--seconds S]   every workload, end to end
#   benchmark/run.sh --trace [--seed N]         every workload, traced
#   benchmark/run.sh --quick       1/20 of the timed phase, checks only
#   benchmark/run.sh --selfcheck   the full benchmark twice, compared
#                                  against the bounds in BENCHMARK.json
#
# Builds `--release --offline` into $CARGO_TARGET_DIR (default
# benchmark/target), scrubs every TRIEJAX_* variable so no ambient knob
# reaches the program, and runs each workload in a process of its own.
set -euo pipefail

here=benchmark
[ -f "$here/Cargo.toml" ] || { echo "run.sh: run from the root of the checkout" >&2; exit 2; }
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
out="$here/out"

for var in $(compgen -e | grep '^TRIEJAX_' || true); do unset "$var"; done

# The workload names, from the one list the driver reads too.
mapfile -t workloads < <(sed -n 's/.*{"name": "\([^"]*\)", "why": .*/\1/p' BENCHMARK.json)
seed=1
seconds=17
trace=0
mode=all
workload=

while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; mode=one; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      # The driver passes a value; `--trace` alone means a traced run of everything.
      if [ "${2:-}" = 0 ] || [ "${2:-}" = 1 ]; then trace="$2"; shift 2; else trace=1; shift; fi ;;
    --quick) mode=quick; shift ;;
    --selfcheck) mode=selfcheck; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

# bench_e2e alone serves the end-to-end run, so a change that stops
# bench_layers from compiling cannot take the end-to-end numbers with it.
build() {
  cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bin "$1" >&2
}

# run_one WORKLOAD SEED SECONDS TRACE: one process, full output.
run_one() {
  local bin=bench_e2e
  [ "$4" = 1 ] && bin=bench_layers
  "$CARGO_TARGET_DIR/release/$bin" --workload "$1" --seed "$2" --seconds "$3" --trace "$4" --out-dir "$out"
}

# run_all SECONDS TRACE FILE...: every workload, once per FILE; prints each
# run's metric lines under its name and appends "<workload> <result
# object>" to that FILE. With two files the two runs of a workload are
# back to back, so the machine's slow drift does not come between them.
run_all() {
  local seconds=$1 trace=$2 w file log status=0
  shift 2
  for file in "$@"; do : > "$file"; done
  for w in "${workloads[@]}"; do
    for file in "$@"; do
      echo "== $w"
      if log=$(run_one "$w" "$seed" "$seconds" "$trace"); then
        printf '%s\n' "$log" | sed '$d'
        printf '%s %s\n' "$w" "$(printf '%s\n' "$log" | tail -n 1)" >> "$file"
      else
        printf '%s\n' "$log"
        echo "run.sh: $w failed" >&2
        status=1
      fi
    done
  done
  if grep -v '"failed": 0,' "$@"; then
    echo "run.sh: operations failed in the runs above" >&2
    status=1
  fi
  return $status
}

case "$mode" in
  one)
    if [ "$trace" = 1 ]; then build bench_layers; else build bench_e2e; fi
    run_one "$workload" "$seed" "$seconds" "$trace"
    ;;
  all)
    mkdir -p "$out"
    if [ "$trace" = 1 ]; then build bench_layers; else build bench_e2e; fi
    run_all "$seconds" "$trace" "$out/results-trace$trace.txt"
    ;;
  quick)
    mkdir -p "$out"
    build bench_e2e
    run_all "$(awk "BEGIN { print $seconds / 20 }")" 0 "$out/results-quick.txt"
    ;;
  selfcheck)
    mkdir -p "$out"
    build bench_e2e
    run_all "$seconds" 0 "$out/selfcheck-a.txt" "$out/selfcheck-b.txt"
    # Compare the two sets metric by metric against the bounds.
    awk '
      function value(line, name,   key) {
        key = "\"" name "\": {\"value\": "
        return substr(line, index(line, key) + length(key)) + 0
      }
      FILENAME == ARGV[1] {
        if (match($0, /"name": "[^"]+", "unit": "[^"]+", "better": "[^"]+", "bound": [0-9.]+/)) {
          entry = substr($0, RSTART, RLENGTH)
          split(entry, part, "\"")
          name = part[4]; better[name] = part[12]
          sub(/.*"bound": /, "", entry); bound[name] = entry + 0
          order[++n] = name
        }
        next
      }
      FILENAME == ARGV[2] { first[$1] = $0; next }
      {
        for (i = 1; i <= n; i++) {
          name = order[i]
          a = value(first[$1], name); b = value($0, name)
          worse = (better[name] == "lower") ? (b - a) / a : (a - b) / a
          spread = (a > b ? a - b : b - a) / ((a + b) / 2)
          verdict = (worse > bound[name]) ? "WORSE THAN BOUND" : "ok"
          if (worse > bound[name]) bad = 1
          printf "%-14s %-12s first %12.4f second %12.4f spread %5.1f %% bound %4.1f %% %s\n", \
            $1, name, a, b, spread * 100, bound[name] * 100, verdict
        }
      }
      END { exit bad }
    ' BENCHMARK.json "$out/selfcheck-a.txt" "$out/selfcheck-b.txt"
    ;;
esac
