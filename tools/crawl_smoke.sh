#!/bin/sh
# Smoke test of the crawl workload as a black box: generate a multi-site
# origin with ntw_origin, crawl it over file:// AND over a live local
# HTTP origin, and assert both NDJSON outputs are byte-identical to two
# offline baselines over the same pages: `ntw_extract --emit ndjson`
# (the same extraction router the crawl uses) and `ntw_extract
# --no-fast-path` (the heap-DOM interpreter, the reference every fast
# route must match) — fetch transport, worker scheduling, the frontier
# and the route taken must not change a single output byte. check.sh and CI run this after the unit suite; it
# is the only place the installed ntw_origin/ntw_crawl binaries, the
# static-file origin, and the port-file handshake meet end to end.
# Usage: tools/crawl_smoke.sh <build-dir> [workers]
set -u

BUILD="${1:?usage: tools/crawl_smoke.sh <build-dir> [workers]}"
WORKERS="${2:-4}"
ORIGIN_BIN="$BUILD/tools/ntw_origin"
CRAWL_BIN="$BUILD/tools/ntw_crawl"
EXTRACT_BIN="$BUILD/tools/ntw_extract"
for BIN in "$ORIGIN_BIN" "$CRAWL_BIN" "$EXTRACT_BIN"; do
  [ -x "$BIN" ] || { echo "crawl_smoke: $BIN not built" >&2; exit 1; }
done

WORK="$(mktemp -d "${TMPDIR:-/tmp}/ntw_crawl_smoke.XXXXXX")"
PID=""
trap '[ -n "$PID" ] && kill "$PID" 2>/dev/null; rm -rf "$WORK"' EXIT

fail() { echo "crawl_smoke: $1" >&2; exit 1; }

# An 8-site origin (the acceptance floor) with learned wrappers: every
# site gets an XPATH wrapper (streaming XPath executor) and an LR
# delimiter wrapper (streaming delimiter path), so one crawl exercises
# both streaming routes.
"$ORIGIN_BIN" --out "$WORK/origin" --wrapper-dir "$WORK/repo" \
    --sites 8 --pages 5 2> "$WORK/origin.log" \
    || fail "ntw_origin failed: $(cat "$WORK/origin.log")"

# Writes an offline baseline to $1: per-site, per-attribute NDJSON from
# ntw_extract (the remaining arguments are extra ntw_extract flags),
# interleaved into crawl emission order (pages in sorted order; within a
# page, wrappers in repository order: name before name_lr).
offline_baseline() {
  OUT="$1"
  shift
  : > "$OUT"
  for SITE_DIR in "$WORK/origin"/site_*; do
    SITE="$(basename "$SITE_DIR")"
    for ATTR in name name_lr; do
      "$EXTRACT_BIN" --pages "$SITE_DIR" --wrapper-dir "$WORK/repo" \
          --site "$SITE" --attribute "$ATTR" --emit ndjson \
          --url-prefix "file://$WORK/origin/$SITE" "$@" \
          > "$OUT.$SITE.$ATTR" 2>/dev/null \
          || fail "ntw_extract $* failed for $SITE/$ATTR"
    done
    # paste -d'\n' interleaves line i of both files: name, name_lr, ...
    paste -d '\n' "$OUT.$SITE.name" "$OUT.$SITE.name_lr" >> "$OUT"
  done
  [ -s "$OUT" ] || fail "offline baseline $OUT is empty"
}
offline_baseline "$WORK/offline.ndjson"
offline_baseline "$WORK/interpreted.ndjson" --no-fast-path

# A crawl output must equal both baselines byte for byte.
check_crawl() {
  cmp -s "$1" "$WORK/offline.ndjson" \
      || fail "$2 crawl output differs from the offline baseline"
  cmp -s "$1" "$WORK/interpreted.ndjson" \
      || fail "$2 crawl output differs from the interpreter baseline"
}

# Crawl over file:// from the root index (depth 1 discovers every page).
"$CRAWL_BIN" --wrapper-dir "$WORK/repo" \
    --seeds "file://$WORK/origin/index.html" --max-depth 1 \
    --workers "$WORKERS" --out "$WORK/crawl_file.ndjson" --quiet \
    2> "$WORK/crawl_file.log" \
    || fail "file:// crawl failed: $(cat "$WORK/crawl_file.log")"
check_crawl "$WORK/crawl_file.ndjson" "file://"

# Single worker must produce the same bytes as $WORKERS workers.
"$CRAWL_BIN" --wrapper-dir "$WORK/repo" \
    --seeds "file://$WORK/origin/index.html" --max-depth 1 \
    --workers 1 --out "$WORK/crawl_serial.ndjson" --quiet \
    2> "$WORK/crawl_serial.log" \
    || fail "serial crawl failed: $(cat "$WORK/crawl_serial.log")"
check_crawl "$WORK/crawl_serial.ndjson" "serial"

# Serve the same tree over HTTP and crawl it: same records, same order,
# only the url member's prefix differs.
"$ORIGIN_BIN" --serve "$WORK/origin" --port 0 \
    --port-file "$WORK/port" 2> "$WORK/serve.log" &
PID=$!
i=0
while [ ! -s "$WORK/port" ]; do
  i=$((i + 1))
  [ "$i" -gt 100 ] && fail "origin server never wrote the port file: $(cat "$WORK/serve.log")"
  kill -0 "$PID" 2>/dev/null \
      || fail "origin server died at startup: $(cat "$WORK/serve.log")"
  sleep 0.1
done
PORT="$(cat "$WORK/port")"

# --rps is generous: politeness is the limiter test's concern; the smoke
# asserts byte-identity, not pacing.
"$CRAWL_BIN" --wrapper-dir "$WORK/repo" \
    --seeds "http://127.0.0.1:$PORT/index.html" --max-depth 1 \
    --workers "$WORKERS" --rps 10000 --burst 64 \
    --out "$WORK/crawl_http.ndjson" --quiet 2> "$WORK/crawl_http.log" \
    || fail "http crawl failed: $(cat "$WORK/crawl_http.log")"
kill "$PID" 2>/dev/null
wait "$PID" 2>/dev/null
PID=""

sed "s|http://127.0.0.1:$PORT|file://$WORK/origin|g" \
    "$WORK/crawl_http.ndjson" > "$WORK/crawl_http_norm.ndjson"
check_crawl "$WORK/crawl_http_norm.ndjson" "http"

RECORDS="$(wc -l < "$WORK/offline.ndjson")"
echo "crawl_smoke OK ($RECORDS records, file+http byte-identical to router and interpreter, $WORKERS workers)"
