#!/bin/sh
# Malformed numbers and shapes are usage or input errors: each tool must
# exit 2, never die on an uncaught exception (SIGABRT, exit 134).
#
#   tool_exit_test.sh CASE CLI SERVE LOADGEN MKNET WORKDIR
#
# CASE: cli-number | cli-shape | cli-input-width | cli-spec-width |
#       cli-worker-fault-shard | cli-threads | serve-number |
#       serve-threads | serve-worker-shape | cli-worker-shape |
#       loadgen-number. The shape cases use a real
#       network (written by genprove_mknet, 4 inputs and 3 outputs), so
#       only the shape or the spec is wrong: cli-input-width feeds it
#       5-wide endpoints, cli-spec-width a 4-class spec, and the worker
#       cases hand either binary's worker entry a job whose input shape
#       does not parse. cli-worker-fault-shard aims --inject-worker-fault
#       at shard 7 of a --shards 2 run, which no worker would fire. The
#       threads cases ask for --threads 0, which the pool would clamp to
#       one thread instead of the hardware concurrency it might suggest.
set -u
name=$1 cli=$2 serve=$3 loadgen=$4 mknet=$5 work=$6/$1
mkdir -p "$work"
"$mknet" "$work/net" > /dev/null || exit 1
net=$work/net

case $name in
cli-number | cli-shape)
  shape=1x4 p=0
  [ "$name" = cli-number ] && p=abc
  [ "$name" = cli-shape ] && shape=1xa
  "$cli" --net "$net/tiny_net.bin" --input-shape "$shape" \
    --start "$net/start.txt" --end "$net/end.txt" --spec argmax:0:3 --p "$p"
  ;;
cli-input-width)
  echo "0 0 0 0 0" > "$work/start5.txt"
  echo "1 1 1 1 1" > "$work/end5.txt"
  "$cli" --net "$net/tiny_net.bin" --input-shape 1x5 \
    --start "$work/start5.txt" --end "$work/end5.txt" --spec argmax:0:3
  ;;
cli-spec-width)
  "$cli" --net "$net/tiny_net.bin" --input-shape 1x4 \
    --start "$net/start.txt" --end "$net/end.txt" --spec argmax:0:4
  ;;
cli-worker-fault-shard)
  "$cli" --net "$net/tiny_net.bin" --input-shape 1x4 \
    --start "$net/start.txt" --end "$net/end.txt" --spec argmax:0:3 \
    --shards 2 --inject-worker-fault crash:7
  ;;
cli-threads)
  "$cli" --net "$net/tiny_net.bin" --input-shape 1x4 \
    --start "$net/start.txt" --end "$net/end.txt" --spec argmax:0:3 \
    --threads 0
  ;;
serve-number)
  "$serve" --socket "$work/serve.sock" --net "tiny=$net/tiny_net.bin" \
    --max-concurrent abc
  ;;
serve-threads)
  "$serve" --socket "$work/serve.sock" --net "tiny=$net/tiny_net.bin" \
    --threads 0
  ;;
serve-worker-shape | cli-worker-shape)
  printf '{"nets":["%s"],"input_shape":"1xa","start":[0,0,0,0],%s}\n' \
    "$net/tiny_net.bin" '"end":[1,1,1,1],"specs":["argmax:0:3"]' \
    > "$work/spec.json"
  tool=$serve
  [ "$name" = cli-worker-shape ] && tool=$cli
  "$tool" --worker-request "$work/spec.json"
  ;;
loadgen-number)
  "$loadgen" --socket "$work/serve.sock" --net tiny --dims 4 \
    --spec argmax:0:3 --clients abc
  ;;
*)
  echo "unknown case: $name"
  exit 1
  ;;
esac > "$work/out.txt" 2>&1
rc=$?
head -n 3 "$work/out.txt"
if [ "$rc" -ne 2 ]; then
  echo "$name: exit $rc, want 2 (usage or input error)"
  exit 1
fi
echo "$name: exit 2"
