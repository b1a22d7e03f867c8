# bench_smoke: runs every workload in WORKLOADS (one per *.scn file) once
# with --trace and a one-second budget, validates each Chrome trace with
# trace_check, then compares the run records against themselves. That
# comparison fails unless the workloads run are exactly the ones
# BENCHMARK.json lists and every end-to-end metric it names is present.
# Run from the repo root (--compare reads ./BENCHMARK.json).
#
#   cmake -DNCC_BENCH=<path> -DTRACE_CHECK=<path> -DWORKLOADS=<dir> -DOUT_DIR=<path>
#         -P bench_smoke.cmake
foreach(var NCC_BENCH TRACE_CHECK WORKLOADS OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE ${OUT_DIR})
file(MAKE_DIRECTORY ${OUT_DIR})
file(GLOB specs ${WORKLOADS}/*.scn)
foreach(spec ${specs})
  get_filename_component(workload ${spec} NAME_WE)
  execute_process(
    COMMAND ${NCC_BENCH} --workload ${workload} --seed 1 --seconds 1
            --trace ${OUT_DIR}/trace_${workload}.json --json ${OUT_DIR}/runs.json
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ncc_bench --workload ${workload} exited ${rc}")
  endif()
  execute_process(
    COMMAND ${TRACE_CHECK} ${OUT_DIR}/trace_${workload}.json
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "trace_check rejected the ${workload} trace")
  endif()
endforeach()

execute_process(
  COMMAND ${NCC_BENCH} --compare ${OUT_DIR}/runs.json ${OUT_DIR}/runs.json
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ncc_bench --compare of the smoke runs exited ${rc}")
endif()
