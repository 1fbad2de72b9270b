# Reruns one results-writing bench in a fresh working directory and fails
# unless every CSV it is pinned to is byte-identical to the committed copy.
#
#   cmake -DBENCH=<binary> -DCSVS=<a.csv,b.csv,...> -DEXPECTED_DIR=<results>
#         -DWORKDIR=<scratch dir> -P pinned_csv.cmake
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(COMMAND "${BENCH}" WORKING_DIRECTORY "${WORKDIR}"
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
string(REPLACE "," ";" csvs "${CSVS}")
foreach(csv IN LISTS csvs)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          "${WORKDIR}/results/${csv}" "${EXPECTED_DIR}/${csv}"
                  RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR "${WORKDIR}/results/${csv} differs from "
                        "${EXPECTED_DIR}/${csv}; regenerate the committed "
                        "file only for an intended model change")
  endif()
endforeach()
