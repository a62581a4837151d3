# Round-reuse gate (DESIGN.md §15.9): runs nashdb_sim's real2 reference
# run with `--metrics` and fails unless the snapshot counts exactly the
# builds and plans that round reuse skips there. The run is deterministic,
# so the counts repeat exactly; a change that silently loses the reuse
# fails here even though no simulated output moves.
#
#   cmake -DSIM=<nashdb_sim> -DOUT=<snapshot.json> -P check_reuse.cmake
file(REMOVE "${OUT}")
execute_process(
  COMMAND "${SIM}" --workload=real2 --scale=0.25 "--metrics=${OUT}"
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "nashdb_sim --workload=real2 exited ${rc}")
endif()
if(NOT EXISTS "${OUT}")
  message(FATAL_ERROR "no metrics snapshot at ${OUT}")
endif()
file(READ "${OUT}" json)
foreach(counter replication.reused_builds transition.reused_plans)
  string(JSON count ERROR_VARIABLE err GET "${json}" counters "${counter}")
  if(err)
    message(FATAL_ERROR "${OUT} has no counter ${counter}: ${err}")
  endif()
  if(NOT count EQUAL 25)
    message(FATAL_ERROR "${counter} is ${count}, expected 25 on real2")
  endif()
endforeach()
