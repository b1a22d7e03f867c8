# ctest leg `trace_check_usage`: trace_check run with no arguments names no
# trace file, a usage error, and must exit exactly 2 (0 clean / 1 findings /
# 2 usage, the convention det_lint shares) with its usage line on stderr.
#
#   cmake -DTRACE_CHECK=<trace_check binary> -P trace_check_usage.cmake
if(NOT DEFINED TRACE_CHECK)
  message(FATAL_ERROR "trace_check_usage.cmake: missing -DTRACE_CHECK")
endif()

execute_process(COMMAND ${TRACE_CHECK}
                OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "trace_check with no arguments exited ${rc}, expected 2 (usage)\nstderr:\n${err}")
endif()
if(NOT err MATCHES "usage: trace_check")
  message(FATAL_ERROR "trace_check usage error printed no usage line:\n${err}")
endif()
