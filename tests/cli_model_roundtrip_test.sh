#!/bin/sh
# End-to-end contract of the CLI's served model artifact:
#   - `cluster --model-dir=D` leaves exactly one file in D, bank.fbank;
#   - `classify` prints one line per input record, in input order;
#   - --prefilter=off output is byte-identical to --prefilter=on;
#   - a truncated bank, or a missing one, makes classify exit non-zero.
#
# Usage: cli_model_roundtrip_test.sh <path/to/cluseq_cli>

set -u
cli=$1
work=$(mktemp -d) || exit 1
trap 'rm -rf "$work"' EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

"$cli" generate --kind=synthetic --scale=0.05 --out="$work/db.tsv" \
  > /dev/null || fail "generate exited non-zero"
"$cli" cluster --input="$work/db.tsv" --model-dir="$work/models" \
  --min-members=3 --threads=2 > "$work/cluster.log" 2>&1 ||
  fail "cluster exited non-zero: $(cat "$work/cluster.log")"
files=$(ls -A "$work/models")
[ "$files" = "bank.fbank" ] ||
  fail "model dir holds '$files', expected only bank.fbank"

"$cli" classify --input="$work/db.tsv" --model-dir="$work/models" \
  --threads=2 > "$work/on.out" 2> "$work/on.err" ||
  fail "classify exited non-zero: $(cat "$work/on.err")"
# One "id<TAB>cluster<TAB>log_sim" line per record, in input order.
cut -f1 "$work/db.tsv" > "$work/ids.want"
grep "$(printf '\t')" "$work/on.out" | cut -f1 > "$work/ids.got"
cmp -s "$work/ids.want" "$work/ids.got" ||
  fail "classify did not print one line per record in input order"

"$cli" classify --input="$work/db.tsv" --model-dir="$work/models" \
  --threads=2 --prefilter=off > "$work/off.out" 2>&1 ||
  fail "classify --prefilter=off exited non-zero"
cmp -s "$work/on.out" "$work/off.out" ||
  fail "--prefilter=off output differs from --prefilter=on"

truncate -s 64 "$work/models/bank.fbank" || fail "truncate failed"
if "$cli" classify --input="$work/db.tsv" --model-dir="$work/models" \
  > "$work/corrupt.out" 2>&1; then
  fail "classify accepted a truncated bank"
fi
grep -qi "corrupt" "$work/corrupt.out" ||
  fail "truncated bank: no corruption message in '$(cat "$work/corrupt.out")'"

rm "$work/models/bank.fbank"
if "$cli" classify --input="$work/db.tsv" --model-dir="$work/models" \
  > /dev/null 2>&1; then
  fail "classify succeeded without bank.fbank"
fi

echo "PASS"
