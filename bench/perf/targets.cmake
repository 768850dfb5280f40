# The bench_perf target and its verify test. Included by this
# directory's standalone CMakeLists.txt; the top-level build can include
# it too once mct_core exists.
get_filename_component(MCT_ROOT ${CMAKE_CURRENT_LIST_DIR}/../.. ABSOLUTE)

# --compare reads result files with the report tool's JSON parser.
if(NOT TARGET mct_report_lib)
    add_library(mct_report_lib STATIC ${MCT_ROOT}/tools/report/report.cc)
    target_include_directories(mct_report_lib
        PUBLIC ${MCT_ROOT}/tools/report)
    target_link_libraries(mct_report_lib PUBLIC mct_core)
endif()

add_executable(bench_perf
    ${CMAKE_CURRENT_LIST_DIR}/bench_perf.cc
    ${CMAKE_CURRENT_LIST_DIR}/suite.cc
    ${CMAKE_CURRENT_LIST_DIR}/layers.cc)
target_link_libraries(bench_perf PRIVATE mct_core mct_report_lib)
target_compile_definitions(bench_perf PRIVATE
    MCT_PERF_DIR="${CMAKE_CURRENT_LIST_DIR}"
    MCT_PERF_ROOT="${MCT_ROOT}"
    MCT_PERF_BUILD_TYPE="${CMAKE_BUILD_TYPE}")
set_target_properties(bench_perf PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

# Digests of the first ops of every workload plus the replay-fidelity
# self-check; asserts no timing.
add_test(NAME bench_perf_verify COMMAND bench_perf --verify)
set_tests_properties(bench_perf_verify PROPERTIES LABELS bench)
