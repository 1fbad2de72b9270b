# Reruns one results-writing bench in a fresh working directory and fails
# unless the CSV it writes is byte-identical to the committed copy.
#
#   cmake -DBENCH=<binary> -DCSV=<name.csv> -DEXPECTED=<committed csv>
#         -DWORKDIR=<scratch dir> -P pinned_csv.cmake
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(COMMAND "${BENCH}" WORKING_DIRECTORY "${WORKDIR}"
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        "${WORKDIR}/results/${CSV}" "${EXPECTED}"
                RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR "${WORKDIR}/results/${CSV} differs from ${EXPECTED}; "
                      "regenerate the committed file only for an intended "
                      "model change")
endif()
