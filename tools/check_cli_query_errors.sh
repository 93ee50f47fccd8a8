#!/usr/bin/env sh
# CLI bad-query regression test: one query the oracle cannot answer (a
# classify whose DEST lies outside the study) must fail only its own line.
# `query --snapshot` and `serve --queries` each print one line per query,
# `error: ...` in the bad query's slot, and exit 1. A snapshot that cannot
# be loaded (a truncated file, a directory, a missing path) must fail the
# run the same way: exit 1 and an `error:` line naming the reason, never an
# abort.
#
# Registered as the `cli_query_errors_check` ctest; takes the run_study_cli
# binary as $1. Builds one default-scale snapshot (a few seconds).
#
# Usage: tools/check_cli_query_errors.sh build/examples/run_study_cli
set -u

bin="${1:?usage: check_cli_query_errors.sh path/to/run_study_cli}"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
status=0

fail() {
  echo "cli-query-errors-check: FAIL: $1"
  status=1
}

if ! "$bin" snapshot --out "$work/study.bin" --seed 5 --threads 2 \
    >/dev/null 2>&1; then
  echo "cli-query-errors-check: FAIL: could not build a snapshot"
  exit 1
fi
cat > "$work/queries.txt" <<'QUERIES'
rel 1 2
classify 1 2 999999 10.0.0.0/24 2
rel 2 3
QUERIES

# $1: description; the command follows. Answer lines are the ones not
# starting with '#' (serve appends '#'-prefixed stats).
check() {
  desc="$1"
  shift
  "$@" >"$work/out.txt" 2>/dev/null
  rc=$?
  grep -v '^#' "$work/out.txt" >"$work/answers.txt"
  lines=$(wc -l <"$work/answers.txt")
  [ "$rc" -eq 1 ] || fail "$desc: exit $rc, expected 1"
  [ "$lines" -eq 3 ] || fail "$desc: $lines answer lines, expected 3"
  sed -n 2p "$work/answers.txt" | grep -q '^error: ' ||
    fail "$desc: line 2 is not an error"
  sed -n 1p "$work/answers.txt" | grep -q '^relationship ' ||
    fail "$desc: line 1 is not an answer"
  sed -n 3p "$work/answers.txt" | grep -q '^relationship ' ||
    fail "$desc: line 3 is not an answer"
}

check "query" "$bin" query --snapshot "$work/study.bin" \
  --queries "$work/queries.txt"
check "serve --queries" "$bin" serve --snapshot "$work/study.bin" \
  --queries "$work/queries.txt"

# $1: description, $2: the --snapshot path, $3: the reason the error line
# must name.
bad_snapshot() {
  "$bin" query --snapshot "$2" --queries "$work/queries.txt" \
    >"$work/out.txt" 2>"$work/err.txt"
  rc=$?
  [ "$rc" -eq 1 ] || fail "$1 snapshot: exit $rc, expected 1"
  grep -q "^error: .*$3" "$work/err.txt" ||
    fail "$1 snapshot: no 'error: ... $3' line"
}

head -c 4096 "$work/study.bin" >"$work/truncated.bin"
mkdir "$work/directory.bin"
bad_snapshot "truncated" "$work/truncated.bin" "truncated image"
bad_snapshot "directory" "$work/directory.bin" "not a regular file"
bad_snapshot "missing" "$work/missing.bin" "cannot open file for reading"

[ "$status" -eq 0 ] &&
  echo "cli-query-errors-check: ok (2 modes, 3 unloadable snapshots)"
exit "$status"
