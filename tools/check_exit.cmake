# Exit-code probe: run one command and require its exact exit status and
# a stderr match (CTest's WILL_FAIL accepts any nonzero status). Run as:
#
#   cmake -DEXE=<binary> "-DARGS=<arg> <arg> ..." -DEXPECT_EXIT=<n> \
#         -DEXPECT_STDERR=<regex> -P tools/check_exit.cmake

if(NOT EXE OR NOT DEFINED EXPECT_EXIT OR NOT DEFINED EXPECT_STDERR)
  message(FATAL_ERROR "usage: cmake -DEXE=<binary> -DARGS=<args> "
    "-DEXPECT_EXIT=<n> -DEXPECT_STDERR=<regex> -P check_exit.cmake")
endif()

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${EXE} ${args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL EXPECT_EXIT)
  message(FATAL_ERROR "${EXE} ${ARGS}: exit ${rc}, expected ${EXPECT_EXIT}\n"
    "stdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "${EXE} ${ARGS}: stderr does not match "
    "'${EXPECT_STDERR}':\n${err}")
endif()
message(STATUS "exit ${rc}, stderr matched '${EXPECT_STDERR}'")
