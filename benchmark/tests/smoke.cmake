# Smoke test of taamr_bench: every workload in its --smoke
# configuration (tiny scale, 1-s legs), untraced and traced. Each run must
# exit 0 with a correct result as its last line; each trace must pass
# tools/trace_summary; attack_grid's traced replay must reproduce the
# untraced run's digest.
#
#   cmake -DBENCH=... -DTRACE_SUMMARY=... -DWORK_DIR=... -P smoke.cmake
foreach(var BENCH TRACE_SUMMARY WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "smoke.cmake: -D${var}=... is required")
  endif()
endforeach()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

foreach(workload pipeline_cold attack_grid serve_hot_swap serve_cold_scan)
  foreach(trace 0 1)
    set(trace_file "${WORK_DIR}/${workload}.trace.json")
    execute_process(
      COMMAND "${BENCH}" --workload ${workload} --seed 1 --seconds 1 --trace ${trace}
              --smoke --trace-file "${trace_file}"
      WORKING_DIRECTORY "${WORK_DIR}"
      RESULT_VARIABLE rc
      OUTPUT_VARIABLE out
      ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${workload} --trace ${trace} exited ${rc}\n${out}\n${err}")
    endif()
    string(STRIP "${out}" out_stripped)
    string(REGEX MATCH "[^\n]*$" last_line "${out_stripped}")
    if(NOT last_line MATCHES "^\\{\"correct\": true, \"attempted\": [1-9]")
      message(FATAL_ERROR "${workload} --trace ${trace}: bad result line: ${last_line}")
    endif()
    if(trace EQUAL 1)
      execute_process(COMMAND "${TRACE_SUMMARY}" "${trace_file}" 5 RESULT_VARIABLE trc
                      OUTPUT_VARIABLE summary ERROR_VARIABLE summary_err)
      if(NOT trc EQUAL 0)
        message(FATAL_ERROR "${workload}: trace_summary rejected ${trace_file}: ${summary_err}")
      endif()
      if(workload STREQUAL "attack_grid" AND NOT out MATCHES "\ndigest match\n")
        message(FATAL_ERROR "attack_grid: traced replay digest differs\n${out}")
      endif()
    endif()
    message(STATUS "${workload} --trace ${trace}: ok")
  endforeach()
endforeach()
