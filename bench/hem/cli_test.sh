#!/bin/sh
# hem_bench_cli: malformed command lines exit 2 and print the usage line.
#   sh cli_test.sh <hem_bench binary>
bin=$1
status=0
expect_usage() {
  out=$("$bin" "$@" 2>&1)
  code=$?
  if [ "$code" -ne 2 ]; then
    echo "FAIL: hem_bench $* exited $code, wanted 2"
    status=1
  elif ! printf '%s\n' "$out" | grep -q '^usage: hem_bench'; then
    echo "FAIL: hem_bench $* printed no usage line"
    status=1
  fi
}
expect_usage --workload sor_local --bogus
expect_usage --workload no_such_workload
expect_usage --workload sor_local --seed abc
expect_usage --workload sor_local --seed -5
expect_usage --workload sor_local --seconds 0
expect_usage --workload sor_local --trace 2
expect_usage --workload sor_local --seed
expect_usage --seed 1
exit $status
