# ctest behaviour gate: one `ncc_run --sweep --no-timing --threads 8` run
# over every checked-in spec directory (the catalog, scenarios/sweeps and the
# Table 1 grids) must emit exactly the committed tests/golden/sweeps.json.
# With --no-timing the output is a pure function of (spec, seed), and the
# cell runner emits cells in cell order whatever the thread count, so any
# byte that moves is a change in simulated behaviour (rounds, messages,
# verdicts, fault counters). A change that moves them on purpose regenerates
# the golden with the same command and explains the moved cells.
#
#   cmake -DNCC_RUN=<path> -DSRC_DIR=<repo root> -DOUT_DIR=<path>
#         -P sweep_golden.cmake
foreach(var NCC_RUN SRC_DIR OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=...")
  endif()
endforeach()

execute_process(
  COMMAND ${NCC_RUN} --sweep --no-timing --threads 8
          --dir ${SRC_DIR}/scenarios --dir ${SRC_DIR}/scenarios/sweeps
          --dir ${SRC_DIR}/scenarios/table1
          --json ${OUT_DIR}/sweeps_golden.json
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ncc_run --sweep --threads 8 exited ${rc}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${OUT_DIR}/sweeps_golden.json ${SRC_DIR}/tests/golden/sweeps.json
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "sweep output differs from tests/golden/sweeps.json: simulated "
          "behaviour moved (diff ${OUT_DIR}/sweeps_golden.json against it)")
endif()
