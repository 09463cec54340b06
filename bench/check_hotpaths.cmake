# Runs bench_hotpaths at --quick and checks its report: the bench exits 0
# (every row's `identical` is true), the report parses as JSON, and its rows
# cover the R2 FPTAS kernel, the three request-reading rows, the scalar ISA
# axis, both probe modes and the latency percentiles. A misspelled argument
# exits 2 before anything runs.
#
#   cmake -DBENCH=build/bench/bench_hotpaths -DREPORT=BENCH_hotpaths.json \
#         -P bench/check_hotpaths.cmake
cmake_minimum_required(VERSION 3.20)

execute_process(COMMAND "${BENCH}" --quik
                RESULT_VARIABLE status OUTPUT_VARIABLE output ERROR_VARIABLE output)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "bench_hotpaths --quik exited ${status}, expected 2:\n${output}")
endif()

execute_process(COMMAND "${BENCH}" --quick "--json-out=${REPORT}"
                RESULT_VARIABLE status OUTPUT_VARIABLE output ERROR_VARIABLE output)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "bench_hotpaths exited ${status}:\n${output}")
endif()

file(READ "${REPORT}" doc)
string(JSON rows ERROR_VARIABLE error LENGTH "${doc}" rows)
if(error OR rows EQUAL 0)
  message(FATAL_ERROR "${REPORT} has no rows array (${error}):\n${doc}")
endif()

set(seen "")
math(EXPR last "${rows} - 1")
foreach(i RANGE ${last})
  string(JSON row GET "${doc}" rows ${i})
  foreach(key kernel isa mode)
    string(JSON value ERROR_VARIABLE missing GET "${row}" ${key})
    if(NOT missing)
      list(APPEND seen "${key}=${value}")
    endif()
  endforeach()
  string(JSON p95 ERROR_VARIABLE missing GET "${row}" p95_ms)
  if(NOT missing)
    list(APPEND seen "p95_ms")
  endif()
endforeach()

foreach(expected kernel=r2_fptas kernel=io_parse kernel=content_hash
                 kernel=decode_request_json isa=scalar mode=value-only mode=eager p95_ms)
  if(NOT expected IN_LIST seen)
    message(FATAL_ERROR "${REPORT} has no row with ${expected}:\n${doc}")
  endif()
endforeach()
