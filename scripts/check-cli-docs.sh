#!/usr/bin/env bash
# Doc-consistency check, in both directions:
#   - the flag inventory in docs/cli.md must match the usage strings of the
#     built binaries;
#   - the "`c4-analyze --stats-json` schema" table in DESIGN.md must name
#     exactly the keys `c4-analyze --stats-json` prints.
#
#   scripts/check-cli-docs.sh [BUILD_DIR]
#
# BUILD_DIR defaults to ./build. Exits 1 listing any drift:
#   - a flag a binary accepts but docs/cli.md does not document
#   - a flag docs/cli.md documents but no binary accepts
#   - a stats key c4-analyze prints but DESIGN.md does not document
#   - a stats key DESIGN.md documents but c4-analyze does not print
#
# Parsing contracts: every documented flag's table row in docs/cli.md
# starts with "| `--name"; every row of the DESIGN.md schema table lists
# its keys, each in backticks, in the first cell.
set -u

BUILD_DIR="${1:-build}"
ANALYZE="$BUILD_DIR/tools/c4-analyze"
SERVE="$BUILD_DIR/tools/c4-serve"
ROUTER="$BUILD_DIR/tools/c4-router"
DOC="docs/cli.md"
DESIGN="DESIGN.md"
STATS_PROGRAM="examples/c4l/fig1_put_get.c4l"

for f in "$ANALYZE" "$SERVE" "$ROUTER" "$DOC" "$DESIGN" "$STATS_PROGRAM"; do
  if [ ! -e "$f" ]; then
    echo "check-cli-docs: missing $f (build first, run from the repo root)" >&2
    exit 1
  fi
done

# Usage strings go to stderr with exit 2. c4-analyze prints usage when run
# with no arguments; c4-serve with no arguments would start serving stdin,
# so an unknown flag elicits its usage instead; c4-router prints usage
# when run with no transport, but an unknown flag works for it too and
# keeps the three probes uniform.
usage_flags() {
  "$@" 2>&1 >/dev/null | grep -oE -- '--[a-z][a-z-]*' | sort -u
}

BIN_FLAGS="$( { usage_flags "$ANALYZE"; usage_flags "$SERVE" --definitely-unknown-flag; \
                usage_flags "$ROUTER" --definitely-unknown-flag; } | sort -u )"
DOC_FLAGS="$(grep -E '^\| `--' "$DOC" | grep -oE -- '--[a-z][a-z-]*' | sort -u)"

if [ -z "$BIN_FLAGS" ]; then
  echo "check-cli-docs: could not extract any flags from the binaries' usage strings" >&2
  exit 1
fi

UNDOCUMENTED="$(comm -23 <(printf '%s\n' "$BIN_FLAGS") <(printf '%s\n' "$DOC_FLAGS"))"
STALE="$(comm -13 <(printf '%s\n' "$BIN_FLAGS") <(printf '%s\n' "$DOC_FLAGS"))"

STATUS=0
if [ -n "$UNDOCUMENTED" ]; then
  echo "check-cli-docs: flags accepted by a binary but not documented in $DOC:" >&2
  printf '  %s\n' $UNDOCUMENTED >&2
  STATUS=1
fi
if [ -n "$STALE" ]; then
  echo "check-cli-docs: flags documented in $DOC but accepted by no binary:" >&2
  printf '  %s\n' $STALE >&2
  STATUS=1
fi

# Stats schema: the keys of one --stats-json object (one key per line,
# `  "key": value`) against the first cell of each schema table row.
BIN_KEYS="$("$ANALYZE" --stats-json "$STATS_PROGRAM" 2>/dev/null \
  | sed -nE 's/^  "([a-z_]+)": .*/\1/p' | sort -u)"
DOC_KEYS="$(awk '/^## `c4-analyze --stats-json` schema/ { on = 1; next }
                 /^## / { on = 0 }
                 on && /^\| `/ { split($0, Cell, "|"); print Cell[2] }' "$DESIGN" \
  | grep -oE '`[a-z_]+`' | tr -d '`' | sort -u)"

if [ -z "$BIN_KEYS" ] || [ -z "$DOC_KEYS" ]; then
  echo "check-cli-docs: could not extract the --stats-json keys or the $DESIGN schema table" >&2
  exit 1
fi

UNDOCUMENTED_KEYS="$(comm -23 <(printf '%s\n' "$BIN_KEYS") <(printf '%s\n' "$DOC_KEYS"))"
STALE_KEYS="$(comm -13 <(printf '%s\n' "$BIN_KEYS") <(printf '%s\n' "$DOC_KEYS"))"
if [ -n "$UNDOCUMENTED_KEYS" ]; then
  echo "check-cli-docs: --stats-json keys printed by c4-analyze but not documented in $DESIGN:" >&2
  printf '  %s\n' $UNDOCUMENTED_KEYS >&2
  STATUS=1
fi
if [ -n "$STALE_KEYS" ]; then
  echo "check-cli-docs: --stats-json keys documented in $DESIGN but not printed by c4-analyze:" >&2
  printf '  %s\n' $STALE_KEYS >&2
  STATUS=1
fi

if [ "$STATUS" -eq 0 ]; then
  echo "check-cli-docs: OK ($(printf '%s\n' "$BIN_FLAGS" | wc -l | tr -d ' ') flags," \
       "$(printf '%s\n' "$BIN_KEYS" | wc -l | tr -d ' ') stats keys in sync)"
fi
exit "$STATUS"
