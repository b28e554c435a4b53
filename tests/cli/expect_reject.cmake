# Run CLI (mstream_cli) with ARGS and require a non-zero exit plus a stderr
# line matching the regex EXPECT. Invoked by ctest as:
#   cmake -DCLI=<binary> -DARGS=<;-list> -DEXPECT=<regex> [-DABSENT=<path>]
#         -P expect_reject.cmake
# With ABSENT (an absolute path the run is asked to write), the refused run
# must also leave no file there.
if(DEFINED ABSENT)
  file(REMOVE "${ABSENT}")
endif()
execute_process(COMMAND ${CLI} ${ARGS}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "${CLI} ${ARGS}: exited 0, expected a rejection\n${out}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "${CLI} ${ARGS}: exit ${rc} without '${EXPECT}' on stderr\n${err}")
endif()
if(DEFINED ABSENT AND EXISTS "${ABSENT}")
  message(FATAL_ERROR "${CLI} ${ARGS}: refused, but still wrote ${ABSENT}")
endif()
