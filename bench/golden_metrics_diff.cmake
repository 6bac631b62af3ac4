# Registry regression check: run a bench binary in its pinned quick
# configuration with --metrics and require the "== metrics (cumulative) =="
# section of its stderr to match the golden byte for byte. The kern.stlb.*
# lines are dropped first: they count host-side soft-TLB work, not simulated
# behaviour. Invoked by the golden_metrics_* ctest entries (see
# CMakeLists.txt) with
#   -DBIN=<bench binary> -DGOLDEN=<golden txt> -DOUT=<scratch output>
execute_process(COMMAND ${BIN} --quick --csv --metrics
                OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} --quick --csv --metrics failed (exit ${rc})")
endif()
string(FIND "${err}" "== metrics (cumulative) ==" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${BIN} printed no cumulative metrics section")
endif()
string(SUBSTRING "${err}" ${at} -1 section)
string(REGEX REPLACE "  kern\\.stlb\\.[^\n]*\n" "" section "${section}")
file(WRITE ${OUT} "${section}")
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR
          "registry regression: ${OUT} differs from ${GOLDEN}; a metric was "
          "renamed, dropped or changed value. If that is intended, regenerate "
          "the golden and say why in the change description")
endif()
