#!/usr/bin/env sh
# Documentation link check: the docs must not rot.
#
# Scans the key documents for (1) repo-relative file paths and (2)
# run_study_cli command lines inside fenced code blocks, then verifies that
# every mentioned path exists in the tree and every mentioned subcommand and
# --flag is actually accepted by examples/run_study_cli.cpp. Registered as
# the `docs_check` ctest, so a renamed file or flag fails CI the moment a
# doc still mentions the old name.
#
# Usage: tools/check_docs.sh   (from anywhere; resolves the repo root itself)
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

docs="README.md DESIGN.md EXPERIMENTS.md ROADMAP.md docs/PROTOCOL.md docs/OPERATIONS.md"
cli_src="examples/run_study_cli.cpp"
status=0

fail() {
  echo "docs-check: $1"
  status=1
}

# -- 1. Every repo-relative path mentioned in the docs must exist.
#
# Tokens are classified by shape:
#   src|tests|examples|docs|tools/...ext        -> file must exist
#   src/<module>                                -> directory must exist
#   <module>/<name>.hpp (include-style)         -> src/<token> must exist
#   examples/<name> or build/examples/<name>    -> <name>.cpp must exist
#   UPPER.md                                    -> file must exist
tokens=$(grep -ohE "[A-Za-z0-9_./-]+" $docs | sort -u)

for tok in $tokens; do
  case $tok in
    */) continue ;;  # Bare directory references like `examples/`.
  esac
  case $tok in
    src/*.hpp | src/*.cpp | tests/*.cpp | tools/*.sh | docs/*.md)
      [ -f "$tok" ] || fail "missing file mentioned in docs: $tok" ;;
    src/util | src/net | src/geo | src/topo | src/bgp | src/dataplane | \
    src/inference | src/core | src/serve)
      [ -d "$tok" ] || fail "missing directory mentioned in docs: $tok" ;;
    README.md | DESIGN.md | EXPERIMENTS.md | ROADMAP.md | CHANGES.md | \
    PAPER.md | PAPERS.md | SNIPPETS.md)
      [ -f "$tok" ] || fail "missing document mentioned in docs: $tok" ;;
    examples/*)
      # Binary names: the matching source must exist.
      base=${tok#build/}
      case $base in
        *.cpp) [ -f "$base" ] || fail "missing source mentioned in docs: $base" ;;
        */*.*) ;;  # Other extensions under these roots: not repo sources.
        */*) [ -f "$base.cpp" ] || \
               fail "docs mention binary '$tok' but $base.cpp does not exist" ;;
      esac ;;
    build/examples/*)
      base=${tok#build/}
      case $base in
        */*.*) ;;
        */*) [ -f "$base.cpp" ] || \
               fail "docs mention binary '$tok' but $base.cpp does not exist" ;;
      esac ;;
    */*.hpp)
      # Include-style paths are relative to src/.
      [ -f "$tok" ] || [ -f "src/$tok" ] || \
        fail "missing header mentioned in docs: $tok" ;;
  esac
done

# -- 2. Every run_study_cli subcommand and flag shown in a fenced code block
# must be accepted by the CLI source (flags survive backslash continuations).
cli_lines=$(awk '
  /^```/ { fence = !fence; cont = 0; next }
  !fence { next }
  {
    if (cont || index($0, "run_study_cli") > 0) {
      print
      cont = ($0 ~ /\\$/) ? 1 : 0
    } else {
      cont = 0
    }
  }
' $docs)

flags=$(printf '%s\n' "$cli_lines" | grep -oE -- '--[a-z][a-z-]*' | sort -u)
for flag in $flags; do
  grep -qF -- "\"$flag\"" "$cli_src" || grep -qF -- "$flag" "$cli_src" || \
    fail "docs mention run_study_cli flag '$flag' unknown to $cli_src"
done

subcommands=$(printf '%s\n' "$cli_lines" |
  sed -n 's/.*run_study_cli \([a-z_][a-z_]*\).*/\1/p' | sort -u)
for sub in $subcommands; do
  grep -qF -- "\"$sub\"" "$cli_src" || \
    fail "docs mention run_study_cli subcommand '$sub' unknown to $cli_src"
done

# -- 3. The reverse: every flag the CLI actually accepts (an `arg == "--x"`
# comparison in the source) must appear somewhere in the docs, so a new flag
# cannot ship undocumented.
src_flags=$(grep -ohE 'arg == "--[a-z-]+"' "$cli_src" |
  grep -oE -- '--[a-z-]+' | sort -u)
for flag in $src_flags; do
  grep -qF -- "$flag" $docs || \
    fail "CLI flag '$flag' is accepted by $cli_src but undocumented"
done

if [ "$status" -eq 0 ]; then
  echo "docs-check: ok ($(printf '%s\n' $docs | wc -l | tr -d ' ') docs," \
       "$(printf '%s\n' $flags | wc -l | tr -d ' ') CLI flags verified)"
fi
exit "$status"
