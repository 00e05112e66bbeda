# Runs BIN with the space-separated ARGS and passes when it exits
# non-zero and its output (stdout and stderr) matches the regex EXPECT.
#
#   cmake -DBIN=<binary> "-DARGS=<key=value ...>" "-DEXPECT=<regex>"
#         -P fails_with.cmake

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BIN} ${args}
                OUTPUT_VARIABLE out ERROR_VARIABLE out RESULT_VARIABLE rc)
if(rc EQUAL 0)
    message(FATAL_ERROR "${BIN} ${ARGS} exited 0:\n${out}")
endif()
if(NOT out MATCHES "${EXPECT}")
    message(FATAL_ERROR "output lacks '${EXPECT}':\n${out}")
endif()
