#!/usr/bin/env sh
# Runs one bench/ext_* feature bench and emits BENCH_<NAME>.json.
#
#   tools/run_ext_bench.sh NAME [build_dir] [output.json]
#
# NAME          binary            measures                            ticks
# multicluster  ext_multi_cluster ticks/sec vs domain count, pool on/off 150
# transport     ext_transport     sync vs sim transport at drop=0       400
# simshards     ext_sim_shards    serial vs sharded event loop          150
# learner       ext_learner       inline vs async learner + allocs/tick 200
# capture       ext_capture       capture off vs on + allocs/tick       200
# net           ext_net           sync vs loopback tcp + bytes/tick     400
# faults        ext_faults        fault injector off vs busy regime     150
#
# Tunables via environment:
#   CAPES_BENCH_TICKS    training ticks per measured point (default above)
#   CAPES_BENCH_THREADS  worker threads (multicluster, transport, simshards
#                        and faults; default: the bench's own pick)
set -eu

NAME="${1:?usage: tools/run_ext_bench.sh NAME [build_dir] [output.json]}"
BUILD_DIR="${2:-build}"
OUT="${3:-BENCH_$NAME.json}"

THREADED=1
case "$NAME" in
  multicluster) BIN=ext_multi_cluster TICKS=150 ;;
  transport) BIN=ext_transport TICKS=400 ;;
  simshards) BIN=ext_sim_shards TICKS=150 ;;
  learner) BIN=ext_learner TICKS=200 THREADED=0 ;;
  capture) BIN=ext_capture TICKS=200 THREADED=0 ;;
  net) BIN=ext_net TICKS=400 THREADED=0 ;;
  faults) BIN=ext_faults TICKS=150 ;;
  *)
    echo "error: unknown bench '$NAME' (expected multicluster, transport," \
      "simshards, learner, capture, net or faults)" >&2
    exit 2
    ;;
esac

BENCH="$BUILD_DIR/bench/$BIN"
if [ ! -x "$BENCH" ]; then
  echo "error: $BENCH not built (cmake --build $BUILD_DIR --target $BIN)" >&2
  exit 1
fi

set -- --ticks="${CAPES_BENCH_TICKS:-$TICKS}" --json="$OUT"
if [ "$NAME" = capture ]; then
  set -- "$@" --capture-file="$BUILD_DIR/bench_capture.cap"
fi
if [ "$THREADED" = 1 ] && [ -n "${CAPES_BENCH_THREADS:-}" ]; then
  set -- "$@" --threads="$CAPES_BENCH_THREADS"
fi
"$BENCH" "$@"
