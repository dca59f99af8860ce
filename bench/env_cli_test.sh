#!/bin/sh
# bench_env_cli: a malformed size variable makes a paper-table harness exit 2
# with "<NAME> wants ..., got '<value>'"; so does a size the app rejects at
# registration (a frame too small for it), naming the count and the limit;
# a small well-formed run exits 0.
#   sh env_cli_test.sh <table4_sor> <ablation_multireturn> <fig_locality_sweep> <table6_em3d>
#                      <table5_mdforce>
table4=$1
multireturn=$2
sweep=$3
table6=$4
table5=$5
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
# A one-node graph has no opposite half to draw edges from.
expect_reject EM3D_NODES 1 "$table6"
# expect_too_large BINARY NAME=VALUE...: the app rejects the sizes at
# registration, and the harness exits 2 with the app's message.
expect_too_large() {
  bin=$1
  shift
  out=$(env "$@" "$bin" 2>&1 >/dev/null)
  code=$?
  if [ "$code" -ne 2 ]; then
    echo "FAIL: $* $(basename "$bin") exited $code, wanted 2"
    status=1
  elif ! printf '%s\n' "$out" | grep -q ", over the limit of [0-9]*\$"; then
    echo "FAIL: $* $(basename "$bin") printed no limit message: $out"
    status=1
  fi
}
# One node pushes more values per half-step than a driver frame holds.
expect_too_large "$table6" EM3D_NODES=16384 EM3D_DEGREE=16 EM3D_CM5_P=2 EM3D_T3D_P=2 EM3D_ITERS=1
# compute_pull's frame (3 + degree slots) would not fit 16 bits.
expect_too_large "$table6" EM3D_NODES=4 EM3D_DEGREE=70000 EM3D_CM5_P=2 EM3D_T3D_P=2 EM3D_ITERS=1
# One node computes more pairs than its driver frame holds.
expect_too_large "$table5" MD_ATOMS=40000 MD_NODES=1
# One node owns more interior cells than its driver frame holds.
expect_too_large "$table4" SOR_N=300 SOR_P=1 SOR_ITERS=1
for v in 0 -1 abc nan inf 1e999 ''; do
  expect_reject SWEEP_WORK "$v" "$sweep"
done
if ! SOR_N=16 SOR_P=2 SOR_ITERS=1 "$table4" >/dev/null; then
  echo "FAIL: SOR_N=16 SOR_P=2 SOR_ITERS=1 table4_sor did not exit 0"
  status=1
fi
exit $status
