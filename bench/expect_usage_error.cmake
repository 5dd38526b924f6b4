# Runs BIN with a malformed integer flag and passes only on the usage-error
# exit code 2 (an uncaught parse exception would abort instead).
#
#   cmake -DBIN=/path/to/binary -P expect_usage_error.cmake
execute_process(COMMAND ${BIN} --admissions=x
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${BIN} --admissions=x exited '${rc}', expected 2")
endif()
