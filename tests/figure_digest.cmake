# Runs one figure binary and compares the SHA-256 of its stdout with a
# pinned digest, so a change that moves a figure's bytes fails ctest.
#
#   cmake -DFIGURE=<binary> "-DENV=K=V K=V" -DSHA256=<hex> \
#         -P tests/figure_digest.cmake
#
# ENV is a space-separated list of environment assignments for the run.
# SVARD_FULL is unset, so an exported paper-scale knob cannot turn the
# check into an hours-long run.
foreach(var FIGURE SHA256)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "figure_digest.cmake needs -D${var}=...")
    endif()
endforeach()
separate_arguments(env_args UNIX_COMMAND "${ENV}")

execute_process(
    COMMAND ${CMAKE_COMMAND} -E env --unset=SVARD_FULL ${env_args}
            ${FIGURE}
    OUTPUT_VARIABLE out
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${FIGURE} (${ENV}) exited with ${rc}")
endif()

string(SHA256 got "${out}")
if(NOT got STREQUAL SHA256)
    message(FATAL_ERROR "${FIGURE} (${ENV}): stdout SHA-256 ${got}, "
                        "pinned ${SHA256}. Output:\n${out}")
endif()
message(STATUS "${FIGURE} (${ENV}): stdout SHA-256 ${got}")
