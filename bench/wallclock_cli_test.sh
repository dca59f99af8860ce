#!/bin/sh
# wallclock_suite_cli: malformed --reps counts and unknown flags exit 2 with
# the usage line, before any workload runs.
#   sh wallclock_cli_test.sh <wallclock_suite binary>
bin=$1
status=0
expect_usage() {
  out=$("$bin" "$@" 2>&1)
  code=$?
  if [ "$code" -ne 2 ]; then
    echo "FAIL: wallclock_suite $* exited $code, wanted 2"
    status=1
  elif ! printf '%s\n' "$out" | grep -q '^usage: wallclock_suite'; then
    echo "FAIL: wallclock_suite $* printed no usage line"
    status=1
  fi
}
expect_usage --reps abc
expect_usage --reps 0
expect_usage --reps -1
expect_usage --reps +3
expect_usage --reps 3x
expect_usage --reps ''
expect_usage --reps 99999999999999999999
expect_usage --smoke --reps abc
expect_usage --reps
expect_usage --bogus
expect_usage --merge
exit $status
