# ctest script: checks cmake/Gate.cmake's metric lookup on two fixture
# BENCH artifacts, run via
#   cmake [-DMISSING=ON] -P GateSelftest.cmake
# With -DMISSING=ON it looks up a metric the fixture lacks, which must fail
# the script (the gate_selftest_missing test is marked WILL_FAIL).
include(${CMAKE_CURRENT_LIST_DIR}/../../cmake/Gate.cmake)
set(serve "${CMAKE_CURRENT_LIST_DIR}/serve_fixture.json")
set(micro "${CMAKE_CURRENT_LIST_DIR}/micro_fixture.json")

if(MISSING)
  gate_metric(value "${serve}" serve_shard_speedup shards=4)
  return()
endif()

# expect(<want> <artifact> <metric> [labels...]): the metric reads <want>.
function(expect want artifact metric)
  gate_metric(value "${artifact}" ${metric} ${ARGN})
  if(NOT value EQUAL want)
    gate_fail("${metric}{${ARGN}} read ${value}, want ${want}")
  endif()
endfunction()

# Labels tell {shards=1}, {shards=4} and unlabeled apart, and a superset of
# the asked-for labels does not match.
expect(100 "${serve}" serve_tcp_qps shards=1)
expect(400 "${serve}" serve_tcp_qps shards=4)
expect(250 "${serve}" serve_tcp_qps)
gate_find_metric(value "${serve}" serve_tcp_qps shards=2)
if(NOT value STREQUAL "NOTFOUND")
  gate_fail("serve_tcp_qps{shards=2} should be missing, read ${value}")
endif()
# Label keys match in any order.
expect(7 "${serve}" serve_latency_p99_ms model=vbpr shards=4)
expect(7 "${serve}" serve_latency_p99_ms shards=4 model=vbpr)
expect(3 "${serve}" serve_latency_p99_ms shards=1 model=vbpr)
# A zero value is a value, not a missing metric.
expect(0 "${serve}" serve_shed shards=4)

# Exponent-formatted values read as the numbers they are.
gate_metric(tiny "${micro}" gemm_profiler_overhead_pct)
if(NOT tiny GREATER 0.000005 OR NOT tiny LESS 0.00002)
  gate_fail("1e-05 read as ${tiny}")
endif()
expect(71 "${micro}" gemm_gflops threads=1 simd_variant=avx2)
expect(2500 "${micro}" gemm_simd_speedup)
gate_metric(negative "${micro}" gemm_speedup_4_over_1)
if(NOT negative LESS -0.3 OR NOT negative GREATER -0.33)
  gate_fail("-3.2e-1 read as ${negative}")
endif()

message(STATUS "${GATE_NAME}: PASS")
