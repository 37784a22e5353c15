#!/bin/sh
# Smoke test of the ntw_serve daemon as a black box: start it on an
# ephemeral port against a throwaway wrapper repository, hit every
# endpoint with curl, then SIGTERM it and assert a clean drain (exit 0,
# final metrics flushed). check.sh and CI run this after the unit suite —
# it is the only place the installed binary, the signal handlers and the
# port-file handshake are exercised end to end.
#
# Beside the configured daemon it starts two more over the same wrappers:
# a --no-fast-path one (the heap-DOM interpreter, the reference) and a
# --pack one serving an `ntw_pack build` of the tree with an empty
# overlay directory (streaming on). Every /extract and
# /extract_batch answer (single attributes and attribute=*) must be
# byte-identical across the three.
# Usage: tools/serve_smoke.sh <build-dir> [shards] [extra daemon flags...]
# e.g. tools/serve_smoke.sh build 2 --no-fast-path
#
# `tools/serve_smoke.sh <build-dir> --self-heal` runs the self-healing
# scenario instead: break the live template mid-traffic and assert the
# daemon re-induces, hot-publishes and persists a working wrapper.
set -u

BUILD="${1:?usage: tools/serve_smoke.sh <build-dir> [shards|--self-heal] [flags...]}"
SERVE="$BUILD/tools/ntw_serve"
[ -x "$SERVE" ] || { echo "serve_smoke: $SERVE not built" >&2; exit 1; }
SELF_HEAL=0
if [ "${2:-}" = "--self-heal" ]; then
  SELF_HEAL=1
  SHARDS=1
  shift 2
  # Tight thresholds so the drift pipeline (warmup -> streak -> collect
  # -> re-induce -> publish) completes within a smoke-test budget.
  set -- --drift-warmup 4 --drift-window 2 --drift-empty-streak 2 \
      --drift-retain 3 --drift-hysteresis 1 "$@"
else
  SHARDS="${2:-1}"
  # Remaining arguments are passed to the daemon verbatim (path toggles
  # like --no-fast-path).
  [ "$#" -ge 2 ] && shift 2 || shift "$#"
fi

WORK="$(mktemp -d "${TMPDIR:-/tmp}/ntw_serve_smoke.XXXXXX")"
PIDS=""
trap 'for p in $PIDS; do kill "$p" 2>/dev/null; done; rm -rf "$WORK"' EXIT

fail() {
  echo "serve_smoke: $1" >&2
  cat "$WORK"/*.log >&2 2>/dev/null
  exit 1
}

# start_daemon NAME FLAGS...: starts ntw_serve on an ephemeral port and
# waits for the port-file handshake (the daemon writes it after bind).
# Sets PID and BASE; stderr goes to $WORK/NAME.log.
start_daemon() {
  NAME="$1"
  shift
  "$SERVE" --port 0 --port-file "$WORK/$NAME.port" --shards "$SHARDS" \
      --quiet "$@" 2> "$WORK/$NAME.log" &
  PID=$!
  PIDS="$PIDS $PID"
  i=0
  while [ ! -s "$WORK/$NAME.port" ]; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "$NAME daemon never wrote the port file"
    kill -0 "$PID" 2>/dev/null || fail "$NAME daemon died at startup"
    sleep 0.1
  done
  BASE="http://127.0.0.1:$(cat "$WORK/$NAME.port")"
}

# stop_daemon PID NAME: graceful SIGTERM must exit 0.
stop_daemon() {
  kill -TERM "$1" || fail "SIGTERM to the $2 daemon failed"
  wait "$1"
  CODE=$?
  [ "$CODE" -eq 0 ] || fail "$2 daemon exited $CODE instead of 0"
}

# The repository: example.com/name extracts <li> text via XPATH (the
# streaming XPath executor); example.com/name_lr is the equivalent LR
# delimiter plan and example.com/bold_lr a second LR plan, so the site
# has two dom_free attributes that attribute=* serves from one StreamPage
# build. All take the interpreter under --no-fast-path.
mkdir -p "$WORK/repo/example.com"
if [ "$SELF_HEAL" -eq 1 ]; then
  # Self-heal scenario: one LR delimiter wrapper that a <b> -> <strong>
  # template change breaks completely.
  printf 'LR\t<b>\t</b>\n' > "$WORK/repo/example.com/name.wrapper"
else
  printf 'XPATH\t//li/text()\n' > "$WORK/repo/example.com/name.wrapper"
  printf 'LR\t<li>\t</li>\n' > "$WORK/repo/example.com/name_lr.wrapper"
  printf 'LR\t<b>\t</b>\n' > "$WORK/repo/example.com/bold_lr.wrapper"
fi

start_daemon main --wrapper-dir "$WORK/repo" \
    --metrics-json "$WORK/metrics.json" "$@"
MAIN_PID="$PID"
MAIN="$BASE"
PORT="${MAIN##*:}"

if [ "$SELF_HEAL" -eq 1 ]; then
  HEALTHY='<html><body><div><b>alpha cars</b><i>s</i></div><div><b>bravo vans</b><i>s</i></div><div><b>carol autos</b><i>s</i></div></body></html>'
  MUTATED='<html><body><div><strong>alpha cars</strong><i>s</i></div><div><strong>bravo vans</strong><i>s</i></div><div><strong>carol autos</strong><i>s</i></div></body></html>'

  # Warm the drift detector's baseline (and its value dictionary, which
  # seeds re-induction labeling) with healthy traffic.
  i=0
  while [ "$i" -lt 6 ]; do
    WARM="$(printf '%s' "$HEALTHY" | curl -sS --max-time 5 --data-binary @- \
        "$MAIN/extract?site=example.com&attribute=name")" \
        || fail "self-heal warmup extract failed"
    case "$WARM" in
      *'"values":["alpha cars","bravo vans","carol autos"]'*) ;;
      *) fail "unexpected healthy extract response: $WARM" ;;
    esac
    i=$((i + 1))
  done

  # /driftz exposes the detector with self-healing on.
  DRIFTZ="$(curl -sS --max-time 5 "$MAIN/driftz")" || fail "driftz request failed"
  case "$DRIFTZ" in
    *'"schema":"ntw-serve-drift"'*) ;;
    *) fail "driftz response is not an ntw-serve-drift document: $DRIFTZ" ;;
  esac
  case "$DRIFTZ" in
    *'"self_heal":true'*) ;;
    *) fail "driftz does not report self_heal enabled: $DRIFTZ" ;;
  esac

  # Break the template and keep the traffic coming: the daemon must
  # detect the drift, re-induce from retained pages and hot-publish a
  # repaired wrapper — after which the same mutated body extracts again.
  i=0
  while :; do
    HEALED="$(printf '%s' "$MUTATED" | curl -sS --max-time 5 --data-binary @- \
        "$MAIN/extract?site=example.com&attribute=name")" \
        || fail "self-heal drifted extract failed"
    case "$HEALED" in
      *'"values":["alpha cars","bravo vans","carol autos"]'*) break ;;
      *'"values":[]'*) ;;
      *) fail "unexpected drifted extract response: $HEALED" ;;
    esac
    i=$((i + 1))
    if [ "$i" -gt 200 ]; then
      fail "daemon never healed from the template mutation: $HEALED"
    fi
    sleep 0.05
  done

  # The repaired wrapper must be durable: persisted over the incumbent
  # with the new delimiters, so a restart would survive the drift too.
  grep -q 'strong' "$WORK/repo/example.com/name.wrapper" \
      || fail "published wrapper was not persisted to disk"
  METRICS="$(curl -sS --max-time 5 "$MAIN/metrics")" || fail "metrics request failed"
  case "$METRICS" in
    *'"ntw.serve.reinduce_published":1'*) ;;
    *) fail "metrics do not report exactly one publish: $METRICS" ;;
  esac

  stop_daemon "$MAIN_PID" main
  echo "serve_smoke OK (port $PORT, self-heal)"
  exit 0
fi

# The reference (interpreter) and pack daemons over the same wrappers.
PACK_TOOL="$BUILD/tools/ntw_pack"
[ -x "$PACK_TOOL" ] || fail "$PACK_TOOL not built"
"$PACK_TOOL" build --root "$WORK/repo" --out "$WORK/wrappers.pack" \
    2> "$WORK/ntw_pack.log" || fail "ntw_pack build failed"
mkdir -p "$WORK/overlay"
start_daemon reference --wrapper-dir "$WORK/repo" --no-fast-path
REFERENCE_PID="$PID"
REFERENCE="$BASE"
start_daemon pack --pack "$WORK/wrappers.pack" --wrapper-dir "$WORK/overlay"
PACK_PID="$PID"
PACK="$BASE"

# /healthz
HEALTH="$(curl -sS --max-time 5 "$MAIN/healthz")" || fail "healthz request failed"
[ "$HEALTH" = "ok" ] || fail "unexpected healthz body: $HEALTH"

# query BASE OUT: the five extraction requests every daemon must answer
# byte-identically — /extract for the XPath plan, the LR plan and
# attribute=*, /extract_batch for one attribute and for attribute=*.
BODY='<html><ul><li>alpha</li><li>beta</li></ul><b>gamma</b></html>'
BATCH_BODY='{"id":"p1","html":"<ul><li>one</li></ul>"}
{"id":"p2","html":"<ul><li>two</li></ul><b>three</b>"}
'
# Responses land in OUT/<endpoint>_<attribute>, "all" standing for *.
query() {
  mkdir -p "$2"
  for q in name name_lr all; do
    a="$q"
    [ "$q" = all ] && a='*'
    printf '%s' "$BODY" | curl -sS --max-time 5 --data-binary @- \
        "$1/extract?site=example.com&attribute=$a" \
        > "$2/extract_$q" || return 1
  done
  for q in name all; do
    a="$q"
    [ "$q" = all ] && a='*'
    printf '%s' "$BATCH_BODY" | curl -sS --max-time 5 --data-binary @- \
        "$1/extract_batch?site=example.com&attribute=$a" \
        > "$2/batch_$q" || return 1
  done
}
query "$MAIN" "$WORK/out_main" || fail "extract requests to the main daemon failed"
query "$REFERENCE" "$WORK/out_reference" \
    || fail "extract requests to the reference daemon failed"
query "$PACK" "$WORK/out_pack" || fail "extract requests to the pack daemon failed"

case "$(cat "$WORK/out_main/extract_name")" in
  *'"values":["alpha","beta"]'*) ;;
  *) fail "unexpected extract response: $(cat "$WORK/out_main/extract_name")" ;;
esac
case "$(cat "$WORK/out_main/extract_name_lr")" in
  *'"values":["alpha","beta"]'*) ;;
  *) fail "unexpected lr extract response: $(cat "$WORK/out_main/extract_name_lr")" ;;
esac
case "$(cat "$WORK/out_main/extract_all")" in
  *'"attributes":{"bold_lr":["gamma"],"name":["alpha","beta"],"name_lr":["alpha","beta"]}'*) ;;
  *) fail "unexpected attribute=* response: $(cat "$WORK/out_main/extract_all")" ;;
esac
case "$(cat "$WORK/out_main/batch_name")" in
  *'"id":"p1","values":["one"]'*) ;;
  *) fail "unexpected batch response: $(cat "$WORK/out_main/batch_name")" ;;
esac
for f in extract_name extract_name_lr extract_all batch_name batch_all; do
  for other in reference pack; do
    cmp -s "$WORK/out_main/$f" "$WORK/out_$other/$f" || fail "$f differs \
between the main and $other daemons: $(cat "$WORK/out_main/$f") vs \
$(cat "$WORK/out_$other/$f")"
  done
done

# The pack daemon built one StreamPage per attribute=* page for both
# dom_free attributes: one /extract page plus two batch lines.
PACK_METRICS="$(curl -sS --max-time 5 "$PACK/metrics")" \
    || fail "pack daemon metrics request failed"
case "$PACK_METRICS" in
  *'"ntw.serve.shared_stream_pages":3'*) ;;
  *) fail "pack daemon did not build one StreamPage for each of the 3 \
attribute=* pages: $PACK_METRICS" ;;
esac
stop_daemon "$REFERENCE_PID" reference
stop_daemon "$PACK_PID" pack

# /metrics must be the canonical ntw-metrics document and account for
# every request issued, including itself: healthz + the five extraction
# requests + this one = 7 (the counter is bumped when a request is
# dispatched).
METRICS="$(curl -sS --max-time 5 "$MAIN/metrics")" || fail "metrics request failed"
case "$METRICS" in
  *'"schema":"ntw-metrics"'*) ;;
  *) fail "metrics response is not an ntw-metrics document" ;;
esac
case "$METRICS" in
  *'"ntw.serve.requests":7'*) ;;
  *) fail "request counter does not account for the 7 requests: $METRICS" ;;
esac

# Hot reload on SIGHUP: a new wrapper becomes servable without restart.
printf 'XPATH\t//b/text()\n' > "$WORK/repo/example.com/price.wrapper"
kill -HUP "$MAIN_PID" || fail "SIGHUP failed"
i=0
while :; do
  RELOADED="$(printf '<b>9</b>' | curl -sS --max-time 5 --data-binary @- \
      "$MAIN/extract?site=example.com&attribute=price")" \
      || fail "post-reload extract failed"
  case "$RELOADED" in
    *'"values":["9"]'*) break ;;
  esac
  i=$((i + 1))
  if [ "$i" -gt 50 ]; then
    fail "reload never served the new wrapper: $RELOADED"
  fi
  sleep 0.1
done

# Graceful SIGTERM: exit 0 and a flushed metrics file.
stop_daemon "$MAIN_PID" main
[ -s "$WORK/metrics.json" ] || fail "daemon did not flush --metrics-json"
case "$(cat "$WORK/metrics.json")" in
  *'"schema":"ntw-metrics"'*) ;;
  *) fail "flushed metrics file is not an ntw-metrics document" ;;
esac

echo "serve_smoke OK (port $PORT, $SHARDS shard(s))"
