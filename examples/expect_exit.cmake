# Runs CMD with ARGS and fails unless it exits with code EXPECT and, when
# STDOUT_HAS is given, prints that string on stdout.
#   cmake -DCMD=prog -DARGS=--flag -DEXPECT=2 [-DSTDOUT_HAS=text]
#         -P expect_exit.cmake
execute_process(COMMAND ${CMD} ${ARGS} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL EXPECT)
  message(FATAL_ERROR "${CMD} ${ARGS}: exit ${rc}, expected ${EXPECT}\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
if(DEFINED STDOUT_HAS)
  string(FIND "${out}" "${STDOUT_HAS}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "${CMD} ${ARGS}: stdout lacks '${STDOUT_HAS}'\n"
                        "stdout:\n${out}")
  endif()
endif()
