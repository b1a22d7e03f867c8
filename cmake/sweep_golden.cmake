# ctest behaviour gate: one `ncc_run --sweep --no-timing --threads 8` run
# over the given spec directories must emit exactly the committed golden.
# With --no-timing the output is a pure function of (spec, seed), and the
# cell runner emits cells in cell order whatever the thread count, so any
# byte that moves is a change in simulated behaviour (rounds, messages,
# verdicts, fault counters, adapter counters) or, under --memory, in the
# network's container footprint. A change that moves them on purpose
# regenerates the golden with the command the failure message names and
# explains the moved cells.
#
#   cmake -DNCC_RUN=<path> -DSRC_DIR=<repo root> -DOUT_DIR=<path>
#         -DDIRS="<spec dir> ..." -DGOLDEN=<repo-relative golden>
#         [-DFLAGS="<extra ncc_run flag> ..."] -P sweep_golden.cmake
#
# DIRS are repo-relative; DIRS and FLAGS are space-separated.
foreach(var NCC_RUN SRC_DIR OUT_DIR DIRS GOLDEN)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=...")
  endif()
endforeach()

separate_arguments(dirs UNIX_COMMAND "${DIRS}")
separate_arguments(flags UNIX_COMMAND "${FLAGS}")
set(dir_args "")
foreach(dir ${dirs})
  list(APPEND dir_args --dir ${dir})
endforeach()
get_filename_component(stem ${GOLDEN} NAME_WE)
set(fresh ${OUT_DIR}/${stem}_golden.json)

execute_process(
  COMMAND ${NCC_RUN} --sweep --no-timing ${flags} --threads 8 ${dir_args}
          --json ${fresh}
  WORKING_DIRECTORY ${SRC_DIR}
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ncc_run --sweep --threads 8 exited ${rc}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${fresh} ${SRC_DIR}/${GOLDEN}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  set(regen ${flags} ${dir_args})
  string(REPLACE ";" " " regen "${regen}")
  message(FATAL_ERROR
          "sweep output differs from ${GOLDEN}: simulated behaviour moved "
          "(diff ${fresh} against it; if the move is intended, regenerate "
          "from the repo root with ./build/ncc_run --sweep --no-timing "
          "${regen} --json ${GOLDEN})")
endif()
