# ctest gate for a committed perf-regression ledger: regenerate it with its
# bench binary and require the fresh file to be byte-identical to the
# committed one, as sweep_golden gates tests/golden/sweeps.json. Every field
# is a counter its fixed workload determines, so any moved byte is a moved
# counter; a change that moves one on purpose regenerates the ledger.
#
#   cmake -DBENCH=<bench binary> -DLEDGER=<committed BENCH_*.json>
#         -DFRESH=<output path> -P bench_ledger.cmake
foreach(var BENCH LEDGER FRESH)
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
  COMMAND ${CMAKE_COMMAND} -E compare_files ${FRESH} ${LEDGER}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  get_filename_component(bench_name ${BENCH} NAME)
  get_filename_component(ledger_name ${LEDGER} NAME)
  message(FATAL_ERROR
          "${FRESH} differs from ${LEDGER}: a ledger counter moved (diff the "
          "two files; if the move is intended, regenerate from the repo root "
          "with ./build/${bench_name} --json ${ledger_name})")
endif()
