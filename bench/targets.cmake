# One binary per paper table/figure, plus ablations and the fault-plan
# robustness table. Included from the top-level CMakeLists
# (not add_subdirectory) so ${CMAKE_BINARY_DIR}/bench holds ONLY the
# bench executables: the canonical run command is
#     for b in build/bench/*; do $b; done
# and must not trip over CMake bookkeeping files.

function(mct_add_bench name)
    add_executable(${name} ${CMAKE_CURRENT_LIST_DIR}/${name}.cc)
    target_link_libraries(${name} PRIVATE mct_core)
    set_target_properties(${name} PROPERTIES
        RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

mct_add_bench(bench_table1_tradeoffs)
mct_add_bench(bench_table2_config_space)
mct_add_bench(bench_table4_lifetime_constraints)
mct_add_bench(bench_fig1_ideal_configs)
mct_add_bench(bench_table6_effective_features)
mct_add_bench(bench_table7_fig2_models)
mct_add_bench(bench_fig3_wear_quota)
mct_add_bench(bench_fig4_feature_selection)
mct_add_bench(bench_fig6_phase_detection)
mct_add_bench(bench_fig7_mct_main)
mct_add_bench(bench_fig8_lifetime_sensitivity)
mct_add_bench(bench_fig9_sampling_overhead)
mct_add_bench(bench_fig10_multiprogram)
mct_add_bench(bench_ablation_mct)
mct_add_bench(bench_faults)

# Table 1's 20 tradeoff directions, end to end on lbm and bwaves: every
# controller mechanism must still move IPC and lifetime the way the
# paper says. It checks directions, not bytes, so the host's libm does
# not matter; it writes no file.
add_test(NAME repro_table1_directions COMMAND bench_table1_tradeoffs)
set_tests_properties(repro_table1_directions PROPERTIES
    PASS_REGULAR_EXPRESSION "directions matching Table 1: 20/20"
    LABELS repro)
