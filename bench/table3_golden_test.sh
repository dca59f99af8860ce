#!/bin/sh
# table3_sequential_golden: table3_sequential at its default sizes prints the
# simulated-time block (from "=== Table 3 — sequential" to the first blank
# line) byte for byte as bench/expected/table3_sequential.txt holds it. The
# host wall-clock block after it is noisy and is not compared.
#   sh table3_golden_test.sh <table3_sequential> <expected block>
bin=$1
expected=$2
out=$("$bin")
code=$?
if [ "$code" -ne 0 ]; then
  echo "FAIL: $(basename "$bin") exited $code"
  exit 1
fi
printf '%s\n' "$out" | awk '/^=== Table 3 .*sequential/ { on = 1 } on && /^$/ { exit } on' |
  diff -u "$expected" -
