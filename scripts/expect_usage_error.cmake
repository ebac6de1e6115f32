# Command-line rejection check, run by ctest:
#
#   cmake -DPROGRAM=<exe> "-DARGS=a|b|c" -P scripts/expect_usage_error.cmake
#
# Runs PROGRAM with the '|'-separated ARGS and passes only if it exits with
# status 2 (a usage error) and printed a usage line to stderr. Exit 0, any
# other status, or death by a signal (which execute_process reports as a
# message instead of a number) all fail.
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 60)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "expected exit status 2, got '${rc}'\nstderr:\n${err}")
endif()
if(NOT err MATCHES "usage:")
  message(FATAL_ERROR "no usage on stderr:\n${err}")
endif()
