# Runs CMD (a list: program, then arguments) and passes iff it exits with
# status 2, the CLIs' "malformed command line" status. A rejection that
# instead aborts on a library contract (status 1) fails.
#
#   cmake "-DCMD=<program>;<arg>;..." -P expect_exit_2.cmake
execute_process(COMMAND ${CMD} RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected exit status 2, got ${rc}")
endif()
