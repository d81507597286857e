#!/bin/sh
# genprove_cli --shards end to end on the mknet tiny net (4 inputs, 3
# outputs): two supervised worker processes must print the single-process
# verdict and bounds within 1e-9, an injected crash of one worker must
# degrade the run (exit 4, DEGRADED) instead of failing it, and no run may
# leave its job file (/tmp/genprove-job-<pid>-*) behind.
#
#   shard_cli_test.sh CLI MKNET WORKDIR
set -u
cli=$1 mknet=$2 work=$3
mkdir -p "$work"
"$mknet" "$work/net" > /dev/null || exit 1
net=$work/net

fail() {
  echo "FAIL: $*"
  exit 1
}

# run NAME ARGS...: one CLI run on the tiny net; output in $work/NAME.out,
# exit code in $rc.
run() {
  name=$1
  shift
  "$cli" --net "$net/tiny_net.bin" --input-shape 1x4 \
    --start "$net/start.txt" --end "$net/end.txt" --spec argmax:1:3 "$@" \
    > "$work/$name.out" 2> "$work/$name.err" &
  pid=$!
  wait "$pid"
  rc=$?
  echo "--- $name (exit $rc)"
  cat "$work/$name.out"
  if ls /tmp/genprove-job-"$pid"-* > /dev/null 2>&1; then
    fail "$name left a job file behind"
  fi
}

verdict() { sed -n 's/^verdict: //p' "$work/$1.out"; }
bounds() {
  sed -n 's/^bounds: *\[\([^,]*\), \([^]]*\)\].*/\1 \2/p' "$work/$1.out"
}

run single
[ "$rc" -eq 0 ] || fail "single-process run exited $rc"
run shards --shards 2
[ "$rc" -eq 0 ] || fail "--shards 2 exited $rc, want 0"
[ -n "$(verdict single)" ] || fail "no verdict line"
[ "$(verdict single)" = "$(verdict shards)" ] || fail "verdicts differ"
[ -n "$(bounds single)" ] || fail "no bounds line"
echo "$(bounds single) $(bounds shards)" | awk '
  function abs(x) { return x < 0 ? -x : x }
  { exit !(NF == 4 && abs($1 - $3) < 1e-9 && abs($2 - $4) < 1e-9) }' ||
  fail "bounds differ: $(bounds single) vs $(bounds shards)"

run crash --shards 2 --inject-worker-fault crash:1
[ "$rc" -eq 4 ] || fail "--inject-worker-fault crash:1 exited $rc, want 4"
grep -q DEGRADED "$work/crash.out" || fail "the crashed run is not DEGRADED"
echo "shard cli: ok"
