# ctest acceptance check for the observability layer: with --no-timing, both
# the scenario JSON (carrying the deterministic "spans"/"congestion"/"flows"
# sections) and the Chrome trace-event file from `ncc_run --trace` must be
# byte-identical at --threads 1 and --threads 8 — the cell runner emits in
# cell order, and spans, congestion counters, live-message-bytes counters,
# and sampled token flows are derived only from rounds + NetStats + the
# router's deposit/arrive order, all a pure function of (spec, seed). The trace file must also pass trace_check, which additionally
# asserts the memory counter track and at least one sampled flow exist
# (--require-memory/--require-flows) with matched flow begin/end ids.
#
#   cmake -DNCC_RUN=<path> -DTRACE_CHECK=<path> -DSCEN_DIR=<path>
#         -DOUT_DIR=<path> -P trace_determinism.cmake
foreach(var NCC_RUN TRACE_CHECK SCEN_DIR OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=...")
  endif()
endforeach()

foreach(threads 1 8)
  execute_process(
    COMMAND ${NCC_RUN} --dir ${SCEN_DIR} --threads ${threads} --no-timing
            --json ${OUT_DIR}/scen_trace_t${threads}.json
            --trace ${OUT_DIR}/trace_t${threads}.json
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ncc_run --trace --threads ${threads} exited ${rc}")
  endif()
endforeach()

foreach(file scen_trace trace)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${OUT_DIR}/${file}_t1.json ${OUT_DIR}/${file}_t8.json
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "${file} output differs between --threads 1 and --threads 8 "
            "(observability determinism contract violated)")
  endif()
endforeach()

execute_process(
  COMMAND ${TRACE_CHECK} --require-flows --require-memory
          ${OUT_DIR}/trace_t1.json
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "trace_check rejected the emitted trace file")
endif()
