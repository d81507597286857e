#!/bin/sh
# Malformed numbers and shapes are usage or input errors: each tool must
# exit 2, never die on an uncaught exception (SIGABRT, exit 134).
#
#   tool_exit_test.sh CASE CLI SERVE LOADGEN MKNET WORKDIR
#
# CASE: cli-number | cli-shape | serve-number | serve-worker-shape |
#       loadgen-number. The shape cases use a real network (written by
#       genprove_mknet), so only the shape itself is wrong.
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
serve-number)
  "$serve" --socket "$work/serve.sock" --net "tiny=$net/tiny_net.bin" \
    --max-concurrent abc
  ;;
serve-worker-shape)
  printf '{"nets":["%s"],"input_shape":"1xa","start":[0,0,0,0],%s}\n' \
    "$net/tiny_net.bin" '"end":[1,1,1,1],"specs":["argmax:0:3"]' \
    > "$work/spec.json"
  "$serve" --worker-request "$work/spec.json"
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
