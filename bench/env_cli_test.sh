#!/bin/sh
# bench_env_cli: a malformed size variable makes a paper-table harness exit 2
# with "<NAME> wants ..., got '<value>'"; a small well-formed run exits 0.
#   sh env_cli_test.sh <table4_sor> <ablation_multireturn> <fig_locality_sweep>
table4=$1
multireturn=$2
sweep=$3
status=0
# expect_reject NAME VALUE BINARY
expect_reject() {
  out=$(env "$1=$2" "$3" 2>&1 >/dev/null)
  code=$?
  if [ "$code" -ne 2 ]; then
    echo "FAIL: $1='$2' $(basename "$3") exited $code, wanted 2"
    status=1
  elif ! printf '%s\n' "$out" | grep -q "^$1 wants .*, got '$2'\$"; then
    echo "FAIL: $1='$2' $(basename "$3") printed no '$1 wants' line: $out"
    status=1
  fi
}
for v in 0 -5 abc x '' ' 8' +8 8x 2147483648 99999999999999999999; do
  expect_reject SOR_N "$v" "$table4"
done
expect_reject SOR_P 0 "$table4"
expect_reject SOR_ITERS x "$table4"
expect_reject A5_NODES 0 "$multireturn"
for v in 0 -1 abc nan inf 1e999 ''; do
  expect_reject SWEEP_WORK "$v" "$sweep"
done
if ! SOR_N=16 SOR_P=2 SOR_ITERS=1 "$table4" >/dev/null; then
  echo "FAIL: SOR_N=16 SOR_P=2 SOR_ITERS=1 table4_sor did not exit 0"
  status=1
fi
exit $status
