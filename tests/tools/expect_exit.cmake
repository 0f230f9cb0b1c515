# Run `${TOOL} ${SUBCOMMAND} ${INPUT}` and fail unless it exits with
# ${EXPECTED}. A crash yields a signal description instead of an exit
# code, so it fails as well; so does a sanitizer report, whose abort
# can exit with the expected code. When ${STDOUT} names a file, the
# standard output must equal its contents.
execute_process(COMMAND ${TOOL} ${SUBCOMMAND} ${INPUT}
                RESULT_VARIABLE result OUTPUT_VARIABLE stdout
                ERROR_VARIABLE stderr)
if(NOT result STREQUAL EXPECTED OR stderr MATCHES "runtime error|Sanitizer")
    message(FATAL_ERROR
        "${SUBCOMMAND} ${INPUT}: got '${result}', want ${EXPECTED}\n"
        "${stderr}")
endif()
if(DEFINED STDOUT)
    file(READ ${STDOUT} want)
    if(NOT stdout STREQUAL want)
        message(FATAL_ERROR
            "${SUBCOMMAND} ${INPUT}: output differs from ${STDOUT}\n"
            "got:\n${stdout}want:\n${want}")
    endif()
endif()
