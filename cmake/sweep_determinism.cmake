# ctest acceptance check for the sweep subsystem: one `ncc_run --sweep` run
# over the checked-in grid specs must emit byte-identical BENCH_sweeps.json
# at --threads 1 and --threads 8: the cells run one at a time or eight at
# once, and the cell runner emits them in cell order (with --no-timing the
# output is a pure function of (spec, seed); partition/heal and byzantine
# cells included).
#
#   cmake -DNCC_RUN=<path> -DSCEN_DIR=<path> -DOUT_DIR=<path> -P sweep_determinism.cmake
foreach(var NCC_RUN SCEN_DIR OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=...")
  endif()
endforeach()

foreach(threads 1 8)
  execute_process(
    COMMAND ${NCC_RUN} --sweep --dir ${SCEN_DIR} --threads ${threads}
            --no-timing --json ${OUT_DIR}/sweeps_t${threads}.json
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ncc_run --sweep --threads ${threads} exited ${rc}")
  endif()
endforeach()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${OUT_DIR}/sweeps_t1.json ${OUT_DIR}/sweeps_t8.json
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "BENCH_sweeps.json differs between --threads 1 and --threads 8 "
          "(determinism contract violated)")
endif()
