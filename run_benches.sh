#!/bin/bash
# Regenerates every paper table/figure plus the design-choice ablations.
# RDP_SCALE shrinks the synthetic suite uniformly; the *ratios* the paper
# reports are scale-stable (see EXPERIMENTS.md).
#
# `run_benches.sh --json` instead runs only the machine-trackable
# microbenchmark sets and writes
#   BENCH_router.json   router / routability-loop benches, BM_MazeRoute (the
#                       phase-B maze fallback alone) included (wall clocks plus
#                       the cache_hit_rate / conns_rerouted_per_iter /
#                       nets_rerouted_per_iter / bins_recomputed_per_iter
#                       counters)
#   BENCH_poisson.json  spectral kernel benches: BM_PoissonSolve (planned
#                       transpose-blocked solver, workspace reuse) next to
#                       BM_PoissonSolveLegacy (faithful pre-plan-cache
#                       kernel) at 64..1024, plus the BM_Dct2d* row/column
#                       pass shapes — the Solve/SolveLegacy ratio at each
#                       size is the PR-over-PR speedup record
#   BENCH_simd.json     SIMD kernel benches: each BM_Simd<Kernel> (wirelength
#                       exp/gradient, density scatter/gather, FFT/DCT
#                       butterflies, RUDY splat) next to its
#                       BM_Simd<Kernel>Legacy twin — a faithful source copy
#                       of the pre-SIMD scalar loop — so the Legacy/<Kernel>
#                       ratio is the single-thread vectorization speedup;
#                       the JSON context carries the active rdp_simd backend
# so the perf trajectory is machine-trackable across PRs.
export RDP_SCALE=${RDP_SCALE:-0.5}
cd "$(dirname "$0")"

if [ "$1" = "--json" ]; then
  echo "=== rdplace router bench (JSON -> BENCH_router.json) ==="
  ./build/bench/micro_kernels \
    --benchmark_filter='GlobalRoute|MazeRoute|RouterRrrRoundThreads|RoutabilityLoopRoute|RudyCongestion' \
    --benchmark_min_time=0.2 \
    --benchmark_out=BENCH_router.json --benchmark_out_format=json \
    2>/dev/null || exit $?
  echo "=== rdplace poisson bench (JSON -> BENCH_poisson.json) ==="
  ./build/bench/micro_kernels \
    --benchmark_filter='PoissonSolve|Dct2d' \
    --benchmark_min_time=0.2 \
    --benchmark_out=BENCH_poisson.json --benchmark_out_format=json \
    2>/dev/null || exit $?
  echo "=== rdplace simd bench (JSON -> BENCH_simd.json) ==="
  # min_time 0.5: the Legacy/vectorized ratios gate PRs, so keep the
  # sample long enough that scheduler noise cannot flip a 2x verdict.
  ./build/bench/micro_kernels \
    --benchmark_filter='BM_Simd' \
    --benchmark_min_time=0.5 \
    --benchmark_out=BENCH_simd.json --benchmark_out_format=json \
    2>/dev/null
  exit $?
fi

echo "=== rdplace bench run (RDP_SCALE=$RDP_SCALE) ==="
for b in table1_main table2_ablation fig1_congestion_decomposition \
         fig3_net_moving_geometry fig4_pg_rail_selection \
         ablation_inflation ablation_dc_model ablation_congestion_source \
         ablation_router_model; do
  echo; echo "##### bench/$b #####"
  ./build/bench/$b 2>/dev/null
done
echo; echo "##### bench/micro_kernels #####"
./build/bench/micro_kernels --benchmark_min_time=0.05 2>/dev/null
# Thread-scaling sweep for the parallel execution layer (WA gradient,
# density scatter, one-RRR-round route at 1/2/4/8 workers). Results are
# bitwise identical across thread counts; only the wall clock moves.
echo; echo "##### bench/micro_kernels (thread scaling) #####"
./build/bench/micro_kernels \
  --benchmark_filter='Threads/' --benchmark_min_time=0.2 2>/dev/null
