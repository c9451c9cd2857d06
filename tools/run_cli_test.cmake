# CTest script driving the bgls_run CLI end to end:
#  1. sample the checked-in QASM circuit (automatic backend selection)
#     and require byte-identical output against the recorded expectation;
#  2. sample it again through the statevector backend at 1, 2 and 4
#     threads, on the dictionary path and with --no-batch on the
#     trajectory path, and require the reports to be byte-identical (the
#     sampler's determinism guarantee, visible at the CLI surface); on
#     the dictionary path, also with the kernels' OpenMP team cut to one
#     thread (OMP_NUM_THREADS=1), which --threads does not change.
#
# Variables: BGLS_RUN, QASM, EXPECTED, WORK_DIR, and optionally PATHS
# (default "dictionary;trajectory"): the sampling paths step 3 checks.

file(MAKE_DIRECTORY ${WORK_DIR})

function(run_bgls_run out_file)
  execute_process(
    COMMAND ${BGLS_RUN} ${ARGN} --out ${out_file} ${QASM}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "bgls_run ${ARGN} failed (exit ${rc}):\n${stdout}\n${stderr}")
  endif()
endfunction()

# 1. Round trip against the recorded expectation (auto-selected backend).
run_bgls_run(${WORK_DIR}/cli_auto.json --reps 4096 --seed 7)
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/cli_auto.json ${EXPECTED}
  RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  file(READ ${WORK_DIR}/cli_auto.json actual)
  message(FATAL_ERROR
    "bgls_run output differs from ${EXPECTED}; got:\n${actual}")
endif()

# 2. Bitstring rendering follows the library convention (qubit 0
#    first, matching util/bits.h to_string and print_histogram): the
#    deterministic |10⟩ outcome of `x q[0]` must print as "10".
get_filename_component(data_dir ${QASM} DIRECTORY)
execute_process(
  COMMAND ${BGLS_RUN} --reps 16 --seed 1 --out ${WORK_DIR}/cli_x0.json
          ${data_dir}/x0.qasm
  RESULT_VARIABLE rc_x0)
if(NOT rc_x0 EQUAL 0)
  message(FATAL_ERROR "bgls_run on x0.qasm failed (exit ${rc_x0})")
endif()
file(READ ${WORK_DIR}/cli_x0.json x0_report)
string(FIND "${x0_report}" "\"bits\": \"10\"" bits_pos)
if(bits_pos EQUAL -1)
  message(FATAL_ERROR
    "bgls_run bit rendering broke the qubit-0-first convention; got:\n"
    "${x0_report}")
endif()

# 3. Thread-count invariance on the sampling paths.
if(NOT DEFINED PATHS)
  set(PATHS dictionary trajectory)
endif()
foreach(path IN LISTS PATHS)
  set(extra)
  if(path STREQUAL "trajectory")
    set(extra --no-batch)
  endif()
  foreach(threads IN ITEMS 1 2 4)
    run_bgls_run(${WORK_DIR}/cli_sv_${path}_t${threads}.json
                 --backend sv --threads ${threads} --reps 4096 --seed 11
                 ${extra})
  endforeach()
  set(variants t2 t4)
  if(path STREQUAL "dictionary")
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E env OMP_NUM_THREADS=1
              ${BGLS_RUN} --backend sv --threads 1 --reps 4096 --seed 11
              --out ${WORK_DIR}/cli_sv_${path}_omp1.json ${QASM}
      RESULT_VARIABLE rc_omp1)
    if(NOT rc_omp1 EQUAL 0)
      message(FATAL_ERROR
        "bgls_run at OMP_NUM_THREADS=1 failed (exit ${rc_omp1})")
    endif()
    list(APPEND variants omp1)
  endif()
  foreach(variant IN LISTS variants)
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
              ${WORK_DIR}/cli_sv_${path}_t1.json
              ${WORK_DIR}/cli_sv_${path}_${variant}.json
      RESULT_VARIABLE diff_threads)
    if(NOT diff_threads EQUAL 0)
      message(FATAL_ERROR
        "bgls_run statevector output (${path} path) changed with the "
        "thread count (t1 vs ${variant}) — the determinism contract is "
        "broken")
    endif()
  endforeach()
endforeach()
