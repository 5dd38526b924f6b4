# Runs BIN with a bad flag and passes only on the usage-error exit code 2
# (an uncaught parse exception or a failed check would abort instead). ARG
# defaults to a malformed integer; pass an out-of-range one to test a flag's
# minimum. EXPECT (default 2) names another exit code for a run that must
# fail cleanly rather than abort.
#
#   cmake -DBIN=/path/to/binary [-DARG=--batch-size=0] [-DEXPECT=1]
#         -P expect_usage_error.cmake
if(NOT DEFINED ARG)
  set(ARG --admissions=x)
endif()
if(NOT DEFINED EXPECT)
  set(EXPECT 2)
endif()
execute_process(COMMAND ${BIN} ${ARG}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL EXPECT)
  message(FATAL_ERROR "${BIN} ${ARG} exited '${rc}', expected ${EXPECT}")
endif()
