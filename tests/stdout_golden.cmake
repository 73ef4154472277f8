# Runs COMMAND and byte-compares its stdout against the committed GOLDEN
# file; the produced text is kept next to the build as OUTPUT for diffing.
# With PDC_UPDATE_GOLDEN set (non-empty, not starting with 0, as
# support::env_flag reads it) the golden is rewritten instead.
#
#   cmake -DCOMMAND=<exe> -DGOLDEN=<file> -DOUTPUT=<file> -P stdout_golden.cmake
execute_process(COMMAND ${COMMAND} OUTPUT_VARIABLE produced RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${COMMAND} failed: ${rc}")
endif()
file(WRITE "${OUTPUT}" "${produced}")

string(SUBSTRING "$ENV{PDC_UPDATE_GOLDEN}" 0 1 update)
if(NOT update STREQUAL "" AND NOT update STREQUAL "0")
  file(WRITE "${GOLDEN}" "${produced}")
  message(STATUS "golden updated: ${GOLDEN}")
  return()
endif()

file(READ "${GOLDEN}" expected)
if(NOT produced STREQUAL expected)
  message(FATAL_ERROR "stdout drifted from the committed golden; compare\n"
                      "  ${OUTPUT}\n  ${GOLDEN}\n"
                      "and, if the change is intentional, rerun with PDC_UPDATE_GOLDEN=1")
endif()
