# Runs BIN with the space-separated ARGS_A and ARGS_B and passes when
# both exit 0 and print the same text, once NAME_B in the second
# output is read as NAME_A (the two runs may label their input
# differently).
#
#   cmake -DBIN=<binary> "-DARGS_A=<key=value ...>" "-DARGS_B=<...>"
#         -DNAME_A=<label> -DNAME_B=<label> -P outputs_agree.cmake

foreach(run A B)
    separate_arguments(args UNIX_COMMAND "${ARGS_${run}}")
    execute_process(COMMAND ${BIN} ${args}
                    OUTPUT_VARIABLE out_${run} RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${BIN} ${ARGS_${run}} exited with ${rc}")
    endif()
endforeach()
string(REPLACE "${NAME_B}" "${NAME_A}" out_B "${out_B}")
if(NOT out_A STREQUAL out_B)
    message(FATAL_ERROR "outputs differ:\n${out_A}\nvs\n${out_B}")
endif()
