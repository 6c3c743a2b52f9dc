# ctest script: simulated results do not depend on the host thread count.
#
# The BSP phases run one simulated device per pool thread, so a data
# race or an order-dependent reduction in them would show up as a
# difference between a single-threaded and a four-threaded run. Runs
# the traced table2 smoke sweep and the sg_serve replay (BSP and BASP)
# under SG_THREADS=1 and SG_THREADS=4 and requires byte-identical
# reports and traces. The gray-failure and SDC ablation smokes run the
# same phases under active fault plans; their BENCH reports carry host
# wall time, so they are compared with report_diff at threshold 0 in
# both directions (host-time fields are not diffed by default).
#
# Invoked as:
#   cmake -DTABLE2=<table2_singlehost> -DSERVE=<sg_serve>
#         -DABL9=<abl9_gray_failure> -DABL10=<abl10_sdc_audit>
#         -DREPORT_DIFF=<report_diff> -DWORK=<dir> -P this_file

foreach(var TABLE2 SERVE ABL9 ABL10 REPORT_DIFF WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR
      "TABLE2, SERVE, ABL9, ABL10, REPORT_DIFF and WORK must be defined")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK}")

# Runs one tool invocation (ARGN) with SG_THREADS=<threads> in that
# thread count's directory; any non-zero exit fails the contract.
function(run_with_threads threads)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env SG_THREADS=${threads} ${ARGN}
    WORKING_DIRECTORY "${WORK}/t${threads}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "SG_THREADS=${threads} ${ARGN}: exit ${rc}\n${out}${err}")
  endif()
endfunction()

foreach(threads 1 4)
  set(dir "${WORK}/t${threads}")
  file(MAKE_DIRECTORY "${dir}")
  run_with_threads(${threads} "${TABLE2}" --smoke
                   --report "${dir}/table2.json" --trace "${dir}/trace.json")
  run_with_threads(${threads} "${SERVE}" --report "${dir}/serve.json")
  run_with_threads(${threads} "${SERVE}" --async
                   --report "${dir}/serve_async.json")
  run_with_threads(${threads} SG_BENCH_REPORT_DIR=${dir} "${ABL9}" --smoke)
  run_with_threads(${threads} SG_BENCH_REPORT_DIR=${dir} "${ABL10}" --smoke)
endforeach()

foreach(file table2.json trace.json serve.json serve_async.json)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${WORK}/t1/${file}" "${WORK}/t4/${file}"
    RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR
      "${file} differs between SG_THREADS=1 and SG_THREADS=4")
  endif()
endforeach()

# report_diff only flags a head value that is worse than its baseline,
# so each pair is diffed both ways.
foreach(file BENCH_abl9_gray_smoke.json BENCH_abl10_sdc_smoke.json)
  foreach(pair "t1;t4" "t4;t1")
    list(GET pair 0 base)
    list(GET pair 1 head)
    execute_process(
      COMMAND "${REPORT_DIFF}" "${WORK}/${base}/${file}"
              "${WORK}/${head}/${file}" --threshold 0
      RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR
        "${file}: SG_THREADS=${head} differs from SG_THREADS=${base} "
        "(report_diff exit ${rc})\n${out}${err}")
    endif()
  endforeach()
endforeach()

message(STATUS "thread-count invariance: all reports and traces identical")
