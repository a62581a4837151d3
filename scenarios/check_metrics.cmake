# Metrics-snapshot gate for scenario mode: runs one scenario with
# `--metrics` and fails unless the run exits 0 and leaves a JSON object at
# the given path.
#
#   cmake -DSIM=<nashdb_sim> -DSPEC=<spec.scn> -DOUT=<snapshot.json> \
#         -P check_metrics.cmake
file(REMOVE "${OUT}")
execute_process(
  COMMAND "${SIM}" "--scenario=${SPEC}" "--metrics=${OUT}"
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "nashdb_sim --scenario=${SPEC} exited ${rc}")
endif()
if(NOT EXISTS "${OUT}")
  message(FATAL_ERROR "no metrics snapshot at ${OUT}")
endif()
file(READ "${OUT}" json)
string(JSON type ERROR_VARIABLE err TYPE "${json}")
if(err OR NOT type STREQUAL "OBJECT")
  message(FATAL_ERROR "${OUT} is not a JSON object: ${err}")
endif()
