# Runs BIN with the space-separated ARGS and passes when, in every
# table it prints, the rows whose first cell matches the regex ROW all
# have the same remaining cells, and ROWS such rows were printed.
#
#   cmake -DBIN=<binary> "-DARGS=<key=value ...>" "-DROW=<regex>"
#         -DROWS=<count> -P rows_agree.cmake

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BIN} ${args}
                OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()

string(REPLACE "\n" ";" lines "${out}")
set(rows 0)
set(first "")
foreach(line IN LISTS lines)
    if(line MATCHES "^== ")
        set(first "") # a new table
    elseif(line MATCHES "^(${ROW}) +(.*)$")
        string(STRIP "${CMAKE_MATCH_2}" cells)
        if(first STREQUAL "")
            set(first "${cells}")
        elseif(NOT cells STREQUAL first)
            message(FATAL_ERROR "rows disagree: '${line}' vs '${first}'")
        endif()
        math(EXPR rows "${rows} + 1")
    endif()
endforeach()
if(NOT rows EQUAL ROWS)
    message(FATAL_ERROR "expected ${ROWS} rows matching '${ROW}', got ${rows}")
endif()
