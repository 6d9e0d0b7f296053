# Runs paralagg_cli once per unreadable or malformed input file and requires
# the data-error exit code 1 for each, with the error naming the file (and,
# for a malformed row, its line): a bad edge list, update batch or facts
# file must be rejected by the row scanner — never an uncaught exception,
# and never a run on silently wrapped, truncated or dropped values.
#
#   cmake -DCLI=<path to paralagg_cli> -DDL=<path to examples/datalog/cc.dl>
#         -DWORK=<work directory> -P cli_bad_inputs.cmake
if(NOT CLI OR NOT DL OR NOT WORK)
  message(FATAL_ERROR "pass -DCLI=<paralagg_cli> -DDL=<cc.dl> -DWORK=<dir>")
endif()
file(MAKE_DIRECTORY "${WORK}")

# check(<expected stderr regex> <command args>...)
function(check expect)
  execute_process(
    COMMAND "${CLI}" ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT rc STREQUAL "1")
    message(SEND_ERROR "paralagg_cli ${ARGN}: exit '${rc}', expected 1")
  elseif(NOT err MATCHES "${expect}")
    message(SEND_ERROR "paralagg_cli ${ARGN}: stderr '${err}' lacks '${expect}'")
  endif()
endfunction()

check("missing[.]el: cannot open" sssp --graph "${WORK}/missing.el" --ranks 2)

# Edge lists: a sign that would wrap to 2^64-1, a fraction that would
# truncate to weight 0, trailing junk that would be dropped.
foreach(row "-1 2" "1 2 0.5" "1 2junk")
  string(MAKE_C_IDENTIFIER "${row}" stem)
  file(WRITE "${WORK}/${stem}.el" "0 1\n${row}\n")
  check("${stem}[.]el:2: " sssp --graph "${WORK}/${stem}.el" --ranks 2 --sources 0)
endforeach()

# Update batches: a non-numeric and a fractional weight.
foreach(row "+ 1 2 x" "+ 1 2 0.5")
  string(MAKE_C_IDENTIFIER "${row}" stem)
  file(WRITE "${WORK}/${stem}.txt" "+ 0 1 1\n${row}\n")
  check("${stem}[.]txt:2: " sssp --synthetic chain --scale 4 --ranks 2 --serve
        --update-batch "${WORK}/${stem}.txt")
endforeach()

# Facts for edge(x, y): trailing junk on a value, an extra column, a short row.
foreach(row "2 3junk" "3 4 junk" "5")
  string(MAKE_C_IDENTIFIER "${row}" stem)
  file(WRITE "${WORK}/${stem}.facts" "0 1\n${row}\n")
  check("${stem}[.]facts:2: " datalog --program "${DL}"
        --facts "edge=${WORK}/${stem}.facts" --ranks 2)
endforeach()
