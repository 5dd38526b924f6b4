# Runs BIN with a bad flag and passes only on the usage-error exit code 2
# (an uncaught parse exception or a failed check would abort instead). ARG
# defaults to a malformed integer; pass an out-of-range one to test a flag's
# minimum.
#
#   cmake -DBIN=/path/to/binary [-DARG=--batch-size=0] -P expect_usage_error.cmake
if(NOT DEFINED ARG)
  set(ARG --admissions=x)
endif()
execute_process(COMMAND ${BIN} ${ARG}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${BIN} ${ARG} exited '${rc}', expected 2")
endif()
