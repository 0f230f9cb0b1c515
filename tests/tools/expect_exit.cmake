# Run `${ACTLINT} report ${REPORT_DIR}` and fail unless it exits with
# ${EXPECTED}. A crash yields a signal description instead of an exit
# code, so it fails as well.
execute_process(COMMAND ${ACTLINT} report ${REPORT_DIR}
                RESULT_VARIABLE result)
if(NOT result STREQUAL EXPECTED)
    message(FATAL_ERROR
        "actlint report ${REPORT_DIR}: got '${result}', want ${EXPECTED}")
endif()
