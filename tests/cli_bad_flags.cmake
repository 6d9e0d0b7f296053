# Runs paralagg_cli once per malformed flag value and requires the
# usage-class exit code 2 for each: a bad numeric token or schedule name
# must be rejected by the flag parser — never an uncaught exception, and
# never a run on a silently truncated value.
#
#   cmake -DCLI=<path to paralagg_cli> -P cli_bad_flags.cmake
if(NOT CLI)
  message(FATAL_ERROR "pass -DCLI=<path to paralagg_cli>")
endif()

# Flag/value pairs.  swing is not a collective schedule; --retry-max
# overflows its 32-bit field; --topology is not a flag, so it must fail
# as an unknown flag rather than parse as anything else.
set(cases
  --nodes abc
  --ranks x
  --sources 0,zz
  --scale 8x
  --schedule swing
  --rounds -1
  --watchdog 1.5x
  --retry-max 99999999999
  --topology hier)

list(LENGTH cases n)
math(EXPR last "${n} - 1")
foreach(i RANGE 0 ${last} 2)
  math(EXPR j "${i} + 1")
  list(GET cases ${i} flag)
  list(GET cases ${j} value)
  execute_process(
    COMMAND "${CLI}" sssp --synthetic chain --scale 4 --ranks 2 ${flag} ${value}
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT rc STREQUAL "2")
    message(SEND_ERROR "paralagg_cli ${flag} ${value}: exit '${rc}', expected 2")
  endif()
  if(flag STREQUAL "--topology" AND NOT err MATCHES "unknown flag --topology")
    message(SEND_ERROR "paralagg_cli ${flag} ${value}: not rejected as an unknown flag")
  endif()
endforeach()
