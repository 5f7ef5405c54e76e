#!/usr/bin/env bash
# Checks a fresh bench run against the committed baseline.
#
#   usage: scripts/bench_regression.sh <current.json> [baseline.json]
#          scripts/bench_regression.sh --core <current.json> [baseline.json]
#
# Default mode gates the throughput-only c10k daemon bench (sas-bench
# --bin store) against BENCH_store.json: any error/BUSY response or
# unanswered request is a hard failure, and throughput may not collapse
# below a quarter of the committed baseline (shared hardware jitters; a 4x
# slide is a regression, not noise). Latency is not gated here; the
# open-loop perfbench daemon-read workload measures it.
#
# --core gates the core bench rollup (scripts/bench_core.sh) against
# BENCH_core.json the same way: every rate must stay above baseline/4,
# and merge_tree_allocs_per_merge — an absolute count, not a rate — may
# not grow past 4x the committed value.
set -euo pipefail

field() { grep -o "\"$2\": *[0-9.]*" "$1" | head -1 | grep -o '[0-9.]*$'; }

ge_floor() { awk -v c="$1" -v b="$2" 'BEGIN { exit !(c >= b / 4) }'; }
le_ceiling() { awk -v c="$1" -v b="$2" 'BEGIN { exit !(c <= b * 4) }'; }

if [ "${1:-}" = "--core" ]; then
  shift
  cur=${1:?usage: bench_regression.sh --core <current.json> [baseline.json]}
  base=${2:-$(dirname "$0")/../BENCH_core.json}
  fail=0
  rates="ingest_keys_per_s sharded8_keys_per_s merge_tree_merges_per_s \
    two_pass_build_keys_per_s varopt_keys_per_s \
    codec_encode_mb_s codec_decode_mb_s merge_from_disk_mb_s \
    merge_from_disk_merges_per_s answer_batch_1d_qps answer_loop_1d_qps \
    answer_batch_2d_qps answer_loop_2d_qps answer_batch_multi_2d_qps \
    answer_multi_small_2d_qps \
    bound_intervals_per_s store_hot_8t_ops_per_s \
    cold_query_view_qps cold_query_decode_qps"
  for name in $rates; do
    c=$(field "$cur" "$name" || true)
    b=$(field "$base" "$name" || true)
    if [ -z "$c" ] || [ -z "$b" ]; then
      echo "FAIL: $name missing from $([ -z "$c" ] && echo "$cur" || echo "$base")"
      fail=1
      continue
    fi
    if ge_floor "$c" "$b"; then
      echo "OK:   $name $c >= floor $(awk -v b="$b" 'BEGIN{printf "%.1f", b/4}') (baseline $b / 4)"
    else
      echo "FAIL: $name $c fell below floor $(awk -v b="$b" 'BEGIN{printf "%.1f", b/4}') (baseline $b / 4)"
      fail=1
    fi
  done
  c=$(field "$cur" merge_tree_allocs_per_merge || true)
  b=$(field "$base" merge_tree_allocs_per_merge || true)
  if [ -n "$c" ] && [ -n "$b" ] && le_ceiling "$c" "$b"; then
    echo "OK:   merge_tree_allocs_per_merge $c <= ceiling $(awk -v b="$b" 'BEGIN{printf "%.1f", b*4}') (baseline $b * 4)"
  else
    echo "FAIL: merge_tree_allocs_per_merge ${c:-missing} exceeded ceiling (baseline ${b:-missing} * 4)"
    fail=1
  fi
  exit "$fail"
fi

cur=${1:?usage: bench_regression.sh <current.json> [baseline.json]}
base=${2:-$(dirname "$0")/../BENCH_store.json}

cur_rps=$(field "$cur" throughput_rps)
cur_err=$(field "$cur" err)
cur_ok=$(field "$cur" ok)
cur_req=$(field "$cur" requests)
base_rps=$(field "$base" throughput_rps)

echo "current:  rps=$cur_rps ok=$cur_ok err=$cur_err requests=$cur_req"
echo "baseline: rps=$base_rps ($base)"

if [ "$cur_err" != 0 ]; then
  echo "FAIL: $cur_err error/BUSY responses (expected 0)"
  exit 1
fi
if [ "$cur_ok" != "$cur_req" ]; then
  echo "FAIL: only $cur_ok of $cur_req requests answered OK"
  exit 1
fi

floor=$(awk -v r="$base_rps" 'BEGIN { printf "%.0f", r / 4 }')
if [ "$(awk -v c="$cur_rps" -v f="$floor" 'BEGIN { print (c >= f) ? 1 : 0 }')" != 1 ]; then
  echo "FAIL: throughput $cur_rps rps fell below the floor $floor rps (baseline / 4)"
  exit 1
fi
echo "OK: throughput $cur_rps rps >= floor $floor rps"
