#!/usr/bin/env sh
# Byte-identity check between two builds of this repository, for changes
# that must not move any output (refactors, speedups).
#
# Runs `run_study_cli --threads 4` from each build at seeds 42 and 7 and
# compares stdout (minus the line naming the output directory) and all nine
# CSV reports byte for byte; then compares the `snapshot --seed 5` oracle
# images with cmp. Prints one line per difference and exits 1 if there is
# any, 0 if every output matches. The runs go one at a time, so the check
# needs the memory of one study.
#
# Usage: tools/compare_study_outputs.sh PARENT_BUILD CHANGE_BUILD
#   where each argument is a CMake build directory holding
#   examples/run_study_cli (e.g. one configured from `git archive` of the
#   parent commit, and `build`).
set -u

usage="usage: compare_study_outputs.sh PARENT_BUILD CHANGE_BUILD"
parent_bin="${1:?$usage}/examples/run_study_cli"
change_bin="${2:?$usage}/examples/run_study_cli"
for bin in "$parent_bin" "$change_bin"; do
  if [ ! -x "$bin" ]; then
    echo "compare-study-outputs: no executable $bin" >&2
    exit 2
  fi
done

work=$(mktemp -d "${TMPDIR:-/tmp}/compare_study_outputs.XXXXXX") || exit 2
trap 'rm -rf "$work"' EXIT INT TERM
status=0

differ() {
  echo "compare-study-outputs: DIFFERS: $1"
  status=1
}

# run SIDE BIN ARGS...: runs one side, fails the check if it exits non-zero.
run() {
  side="$1"
  bin="$2"
  shift 2
  if ! "$bin" "$@" > "$work/raw" 2> "$work/stderr"; then
    differ "$side run failed: $bin $*"
    cat "$work/stderr" >&2
  fi
}

for seed in 42 7; do
  for side in parent change; do
    if [ "$side" = parent ]; then bin="$parent_bin"; else bin="$change_bin"; fi
    out="$work/$side-$seed"
    run "$side" "$bin" --threads 4 --seed "$seed" --out "$out"
    sed '/^wrote [0-9]* CSV report files to /d' "$work/raw" > "$out.stdout"
  done
  cmp -s "$work/parent-$seed.stdout" "$work/change-$seed.stdout" ||
    differ "stdout at seed $seed"
  count=0
  for csv in "$work/parent-$seed"/*.csv; do
    name=$(basename "$csv")
    count=$((count + 1))
    cmp -s "$csv" "$work/change-$seed/$name" || differ "$name at seed $seed"
  done
  [ "$count" -eq 9 ] || differ "parent wrote $count CSV files at seed $seed"
  [ "$(ls "$work/change-$seed" | wc -l)" -eq "$count" ] ||
    differ "CSV file lists at seed $seed"
done

run parent "$parent_bin" snapshot --out "$work/parent.bin" --seed 5 --threads 4
run change "$change_bin" snapshot --out "$work/change.bin" --seed 5 --threads 4
cmp -s "$work/parent.bin" "$work/change.bin" ||
  differ "snapshot image at seed 5"

if [ "$status" -eq 0 ]; then
  echo "compare-study-outputs: identical (stdout and 9 CSVs at seeds 42" \
    "and 7, snapshot image at seed 5)"
fi
exit "$status"
