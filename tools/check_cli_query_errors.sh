#!/usr/bin/env sh
# CLI bad-query regression test: one query the oracle cannot answer (a
# classify whose DEST lies outside the study) must fail only its own line.
# `query --snapshot` and `serve --queries` each print one line per query,
# `error: ...` in the bad query's slot, and exit 1. A snapshot that cannot
# be loaded (a truncated file, a directory, a missing path) must fail the
# run the same way: exit 1 and an `error:` line naming the reason, never an
# abort. A two-study `serve --queries` must print its cache numbers (read
# from the catalog): `cache_hit_rate` on the `# served=` line, and
# `cache_quota` and `cache_hit_rate` on each `#   study NAME:` line. Last,
# the drain lines: a `serve --listen 0` that answered one `query --connect`
# and then got SIGTERM must print the `# wire:` and `# served=` counters
# that irp-bench parses (irp-bench/cpp/server_process.cpp).
#
# Registered as the `cli_query_errors_check` ctest; takes the run_study_cli
# binary as $1. Builds one default-scale snapshot (a few seconds).
#
# Usage: tools/check_cli_query_errors.sh build/examples/run_study_cli
set -u

bin="${1:?usage: check_cli_query_errors.sh path/to/run_study_cli}"
work=$(mktemp -d)
server=""
trap '[ -n "$server" ] && kill "$server" 2>/dev/null; rm -rf "$work"' EXIT
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

# $1: the file, $2: a stats line's prefix, then the keys that line must
# carry.
line_keys() {
  file="$1"
  prefix="$2"
  shift 2
  line=$(grep "^$prefix" "$file")
  [ -n "$line" ] || fail "no '$prefix' line in $(basename "$file")"
  for key in "$@"; do
    echo "$line" | grep -q " $key=[0-9]" ||
      fail "'$prefix' line in $(basename "$file") lacks $key"
  done
}

check "serve --queries, two studies" "$bin" serve \
  --snapshot "a=$work/study.bin" --snapshot "b=$work/study.bin" \
  --queries "$work/queries.txt"
line_keys "$work/out.txt" "# served=" cache_hit_rate
line_keys "$work/out.txt" "#   study a:" cache_quota cache_hit_rate
line_keys "$work/out.txt" "#   study b:" cache_quota cache_hit_rate

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

"$bin" serve --snapshot "$work/study.bin" --listen 0 >"$work/serve.txt" 2>&1 &
server=$!
port=""
tries=0
while [ -z "$port" ] && [ "$tries" -lt 200 ]; do
  port=$(sed -n 's/^oracle serving .* on [^ ]*:\([0-9]*\) .*/\1/p' \
    "$work/serve.txt")
  [ -n "$port" ] || sleep 0.1
  tries=$((tries + 1))
done
if [ -z "$port" ]; then
  fail "drain: serve --listen 0 printed no port"
else
  echo "rel 1 2" | "$bin" query --connect "127.0.0.1:$port" \
    >"$work/remote.txt" 2>/dev/null ||
    fail "drain: query --connect failed"
  grep -q '^relationship ' "$work/remote.txt" ||
    fail "drain: query --connect printed no answer"
  kill -TERM "$server"
  wait "$server" || fail "drain: serve exited $? after SIGTERM"
  server=""
  line_keys "$work/serve.txt" "# wire:" frames_in shed bytes_in bytes_out \
    decode_errors
  line_keys "$work/serve.txt" "# served=" peak_queue
  frames=$(sed -n 's/^# wire:.* frames_in=\([0-9]*\).*/\1/p' "$work/serve.txt")
  [ "${frames:-0}" -ge 1 ] || fail "drain: frames_in=${frames:-none}, expected >= 1"
fi

[ "$status" -eq 0 ] &&
  echo "cli-query-errors-check: ok (3 runs, 3 unloadable snapshots, stats and drain lines)"
exit "$status"
