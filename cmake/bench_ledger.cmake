# ctest gate for a committed perf-regression ledger: regenerate it with its
# bench binary (defaults, no --big) and require bench_compare to find it equal
# to the committed file — the same rows, the same counters, the same values.
#
#   cmake -DBENCH=<bench binary> -DBENCH_COMPARE=<bench_compare>
#         -DLEDGER=<committed BENCH_*.json> -DFRESH=<output path> -P bench_ledger.cmake
foreach(var BENCH BENCH_COMPARE LEDGER FRESH)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=...")
  endif()
endforeach()

execute_process(
  COMMAND ${BENCH} --json ${FRESH}
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} --json ${FRESH} exited ${rc}")
endif()

execute_process(
  COMMAND ${BENCH_COMPARE} ${LEDGER} ${FRESH}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_compare: ${FRESH} differs from ${LEDGER}")
endif()
