# SIMD substrate gate, run via
#   cmake -DBENCH_BIN=<micro_substrate> -DWORK_DIR=... -P SimdSubstrateGate.cmake
#
# Runs micro_substrate with every google-benchmark filtered out (the probe
# section at the end still executes) and pins the AVX2-over-scalar GEMM
# throughput ratio the probe records into BENCH_micro_substrate.json:
#   1. the run itself must exit zero (the probe enforces scalar/AVX2
#      elementwise parity and serial/pooled bit-identity internally),
#   2. when the artifact carries an avx2-labelled sample the recorded
#      gemm_simd_speedup must be at least 2.0.
# Hosts without AVX2+FMA pass trivially: the probe books speedup = 1 and no
# avx2-labelled sample, so there is nothing to pin.
include(${CMAKE_CURRENT_LIST_DIR}/Gate.cmake)
gate_require(BENCH_BIN WORK_DIR)
set(min_speedup 2.0)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
gate_run(micro_substrate COMMAND ${BENCH_BIN} --benchmark_filter=^$
  ENV "TAAMR_BENCH_DIR=${WORK_DIR}")

set(artifact "${WORK_DIR}/BENCH_micro_substrate.json")
gate_find_metric(avx2 "${artifact}" gemm_gflops threads=1 simd_variant=avx2)
if(avx2 STREQUAL "NOTFOUND")
  message(STATUS "${GATE_NAME}: PASS (AVX2 unavailable on this host; speedup not pinned)")
  return()
endif()
gate_metric(speedup "${artifact}" gemm_simd_speedup)
if(speedup LESS min_speedup)
  gate_fail("AVX2 GEMM speedup ${speedup}x is below the ${min_speedup}x floor")
endif()
message(STATUS "${GATE_NAME}: PASS (AVX2 GEMM speedup ${speedup}x >= ${min_speedup}x)")
