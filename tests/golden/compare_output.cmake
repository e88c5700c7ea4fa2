# Runs BINARY and compares its stdout with the file EXPECTED byte for byte,
# after rewriting the one machine-dependent line shape: the runner prints
# "(N trials, K worker threads)" with K = the host's hardware concurrency,
# which is normalised to K = 1. On a difference the normalised output is
# written to ACTUAL for diffing.
#
#   cmake -DBINARY=<exe> -DEXPECTED=<file> -DACTUAL=<file> -P compare_output.cmake
execute_process(COMMAND "${BINARY}" OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BINARY} exited with ${rc}")
endif()
string(REGEX REPLACE "\\(([0-9]+) trials, [0-9]+ worker threads\\)"
       "(\\1 trials, 1 worker threads)" out "${out}")
file(READ "${EXPECTED}" expected)
if(NOT out STREQUAL expected)
  file(WRITE "${ACTUAL}" "${out}")
  message(FATAL_ERROR "output of ${BINARY} differs from ${EXPECTED}; "
                      "normalised output written to ${ACTUAL}")
endif()
