# Shared helpers for the ctest gate scripts (each runs as cmake -P and
# starts with include(${CMAKE_CURRENT_LIST_DIR}/Gate.cmake)). Messages are
# prefixed with the script's name. A gate judges numbers the bench itself
# booked (ratios, medians of in-process off/on pairs), so every numeric
# check is one if(<value> LESS|GREATER <bound>): CMake compares reals,
# exponents included.
cmake_minimum_required(VERSION 3.19)  # string(JSON)

get_filename_component(GATE_NAME "${CMAKE_SCRIPT_MODE_FILE}" NAME_WE)

function(gate_fail)
  string(JOIN "" msg ${ARGN})
  message(FATAL_ERROR "${GATE_NAME}: ${msg}")
endfunction()

# gate_require(<var>...): every -D<var>=... must be set.
function(gate_require)
  foreach(var ${ARGN})
    if(NOT DEFINED ${var})
      gate_fail("-D${var}=... is required")
    endif()
  endforeach()
endfunction()

# gate_run(<tag> COMMAND <cmd>... [ENV <k=v>...] [INPUT <file>] [RC <code>])
# Runs <cmd> in WORK_DIR with the extra environment and an 800 s timeout
# (inside ctest's 900 s). Its stdout and stderr go to WORK_DIR/<tag>.out and
# <tag>.err; stdout also comes back in <tag>_out. Fails the gate, printing
# the tail of stderr, unless the exit code is RC (default 0).
function(gate_run tag)
  cmake_parse_arguments(PARSE_ARGV 1 arg "" "INPUT;RC" "COMMAND;ENV")
  if(NOT DEFINED arg_RC)
    set(arg_RC 0)
  endif()
  set(input)
  if(DEFINED arg_INPUT)
    set(input INPUT_FILE "${arg_INPUT}")
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env ${arg_ENV} ${arg_COMMAND}
    WORKING_DIRECTORY "${WORK_DIR}"
    ${input}
    OUTPUT_FILE "${WORK_DIR}/${tag}.out"
    ERROR_FILE "${WORK_DIR}/${tag}.err"
    RESULT_VARIABLE rc
    TIMEOUT 800)
  if(NOT rc STREQUAL arg_RC)
    file(READ "${WORK_DIR}/${tag}.err" err)
    string(LENGTH "${err}" len)
    if(len GREATER 4000)
      math(EXPR from "${len} - 4000")
      string(SUBSTRING "${err}" ${from} -1 err)
    endif()
    gate_fail("${tag} exited ${rc}, want ${arg_RC}:\n${err}")
  endif()
  file(READ "${WORK_DIR}/${tag}.out" out)
  set(${tag}_out "${out}" PARENT_SCOPE)
endfunction()

# gate_find_metric(<out> <artifact.json> <name> [<label>=<value>...])
# Sets <out> to the value of the BENCH artifact metric called <name> whose
# labels are exactly the given ones (in any order; none means unlabeled),
# or to NOTFOUND.
function(gate_find_metric out artifact name)
  if(NOT EXISTS "${artifact}")
    gate_fail("no artifact ${artifact}")
  endif()
  file(READ "${artifact}" text)
  list(LENGTH ARGN want_labels)
  string(JSON count LENGTH "${text}" metrics)
  set(found NOTFOUND)
  if(count GREATER 0)
    math(EXPR last "${count} - 1")
    foreach(i RANGE ${last})
      string(JSON metric GET "${text}" metrics ${i})
      string(JSON metric_name GET "${metric}" name)
      string(JSON have_labels LENGTH "${metric}" labels)
      if(NOT metric_name STREQUAL name OR NOT have_labels EQUAL want_labels)
        continue()
      endif()
      set(match TRUE)
      foreach(label ${ARGN})
        string(REPLACE "=" ";" kv "${label}")
        list(GET kv 0 key)
        list(GET kv 1 want)
        string(JSON have ERROR_VARIABLE missing GET "${metric}" labels "${key}")
        if(missing OR NOT have STREQUAL want)
          set(match FALSE)
        endif()
      endforeach()
      if(match)
        string(JSON found GET "${metric}" value)
        break()
      endif()
    endforeach()
  endif()
  set(${out} "${found}" PARENT_SCOPE)
endfunction()

# gate_metric(<out> <artifact.json> <name> [<label>=<value>...])
# gate_find_metric, but a missing metric fails the gate.
function(gate_metric out artifact name)
  gate_find_metric(value "${artifact}" "${name}" ${ARGN})
  if(value STREQUAL "NOTFOUND")
    string(JOIN "," labels ${ARGN})
    gate_fail("no metric ${name}{${labels}} in ${artifact}")
  endif()
  set(${out} "${value}" PARENT_SCOPE)
endfunction()

# gate_expect_text(<what> <text> <needle>...): <text> contains every needle.
# Needles are read one ARGV<n> at a time: as a list, a needle holding an
# unbalanced '[' would swallow the ones after it.
function(gate_expect_text what text)
  math(EXPR last "${ARGC} - 1")
  foreach(i RANGE 2 ${last})
    set(needle "${ARGV${i}}")
    string(FIND "${text}" "${needle}" at)
    if(at EQUAL -1)
      string(SUBSTRING "${text}" 0 4000 head)
      gate_fail("${what} is missing '${needle}':\n${head}")
    endif()
  endforeach()
endfunction()
