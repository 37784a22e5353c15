#!/bin/sh
# Copies IN to OUT with the lowest bit of the middle byte flipped — a
# one-byte body corruption for checking that `ntw_pack verify` rejects
# a damaged pack (the middle of any real pack lies past its header).
# Usage: tools/flip_byte.sh IN OUT
set -eu
IN="${1:?usage: tools/flip_byte.sh IN OUT}"
OUT="${2:?usage: tools/flip_byte.sh IN OUT}"
cp "$IN" "$OUT"
OFFSET=$(($(wc -c < "$IN") / 2))
BYTE=$(od -An -tu1 -j "$OFFSET" -N1 "$IN" | tr -d ' ')
# shellcheck disable=SC2059  # The octal escape is the format.
printf "\\$(printf '%03o' "$((BYTE ^ 1))")" |
    dd of="$OUT" bs=1 seek="$OFFSET" conv=notrunc 2> /dev/null
