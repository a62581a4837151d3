#!/usr/bin/env bash
# Repo health check: builds and runs the tier-1 suite plus the chaos
# scenario gates (ctest -L scenario, DESIGN.md 13) in a plain build,
# then the tier-1 suite again under each sanitizer — thread (data races
# in the multithreaded reconfiguration pipeline; also one full scenario
# run), address (heap errors in the fault-injection / retry paths), and
# undefined (UB anywhere).
#
# Usage: tools/check.sh [--quick | --static | --bench-smoke]
#   --quick    in the sanitizer passes, run only the targeted labels
#              (ctest -L 'tsan|online|transition' for TSan,
#              -L 'faults|plane|value|control' for ASan/UBSan) instead of
#              the full suite. The online label marks the
#              online-reconfiguration suites (epoch publish concurrent
#              with routing, DESIGN.md 12); the transition label marks the
#              control-plane matching / packing / validation suites
#              (DESIGN.md 15); the plane label marks the sharded
#              data-plane suites, whose shard threads run the data plane
#              (DESIGN.md 11); the value label marks the value estimator's
#              store-vs-tree differential suite (DESIGN.md 10); the
#              control label marks the control-plane kernel suites
#              (fragmenter, prefix sums, packer, matching) and their
#              bitwise oracles (kernel_oracle_test, DESIGN.md 5b, 15.7).
#   --static   the static gates only, no tests. In order, with a distinct
#              exit code per gate so CI and humans can tell at a glance
#              which one broke:
#                10  tools/nashdb_lint.py — the project-contract linter
#                    (determinism sources, NASHDB_HOT allocation freedom,
#                    lock coverage, status discards, include hygiene;
#                    DESIGN.md 14). Always runs: stdlib python only.
#                11  header_tu_gate — every public src/ header compiled
#                    as a standalone TU (cmake/header_tu_gate.cmake).
#                    Always runs: needs only the configured compiler.
#                12  tools/format.sh --check (clang-format against the
#                    committed .clang-format; skipped without the tool).
#                13  tools/tidy.sh --all (clang-tidy with the curated
#                    .clang-tidy; skipped without the tool).
#                14  the -Wthread-safety -Werror=thread-safety compile of
#                    the NASHDB_GUARDED_BY / NASHDB_REQUIRES annotations
#                    (skipped without clang++; GCC lacks the analysis).
#   --bench-smoke
#              build and run bench_data_plane --smoke and
#              bench_transition_scale --smoke in the plain Release tree
#              and validate the BENCH_data_plane.json /
#              BENCH_transition.json they write (CI runs this and
#              uploads the JSONs as artifacts); then build the
#              end-to-end benchmark (e2ebench/run.py, its own Release
#              tree under $CARGO_TARGET_DIR or .bench_build) and run one
#              second of its chaos and stream workloads and one pass of
#              real2, each of which fails unless its result line reports
#              "correct": true and its printed digest equals the seed-0
#              digest pinned below (E2E_DIGEST; on a mismatch both are
#              printed). The digest hashes every simulated output, so a
#              change that moves any record, configuration or total fails
#              here, and a deliberate re-baseline edits the pins. real2's
#              output check pins nashdb_sim's
#              cost, data moved, latency and span figures, so a wrong
#              transition edge weight fails it; stream, where the
#              Max-of-mins sweep stops at its lower bound on almost every
#              sweep, fails its repeat-pass digest check if routing stops
#              being deterministic. Smoke iteration counts keep it to
#              seconds plus the benchmark's build; the numbers are
#              noise-level, the point is that the benches build against
#              the current interfaces and run, the identity checks
#              inside them pass (route identity for the data plane's
#              sweep and its 128-node replication x load points,
#              sparse-vs-dense plan-cost identity for the transition
#              sweep and its real2-sized instance, output checks for the
#              end-to-end runs), and the JSON is well-formed.
#
# Unknown flags are an error — a typo like --qick silently running the
# slow full suite (or worse, skipping it) is exactly the failure mode a
# gate script must not have.
#
# Build trees: ./build (plain), ./build-tsan, ./build-asan, ./build-ubsan,
# ./build-clang (--static thread-safety pass). Existing trees are reused;
# no generator is forced, so whatever a tree was configured with stays.
set -euo pipefail

cd "$(dirname "$0")/.."

usage() {
  awk 'NR > 1 && !/^#/ { exit } NR > 1 { sub(/^# ?/, ""); print }' "$0"
}

QUICK=0
STATIC=0
BENCH_SMOKE=0
for arg in "$@"; do
  case "${arg}" in
    --quick) QUICK=1 ;;
    --static) STATIC=1 ;;
    --bench-smoke) BENCH_SMOKE=1 ;;
    -h|--help)
      usage
      exit 0
      ;;
    *)
      echo "check.sh: unknown flag '${arg}'" >&2
      echo >&2
      usage >&2
      exit 2
      ;;
  esac
done
if (( QUICK + STATIC + BENCH_SMOKE > 1 )); then
  echo "check.sh: --quick, --static and --bench-smoke are mutually" \
       "exclusive" >&2
  exit 2
fi

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

if [[ "${BENCH_SMOKE}" == "1" ]]; then
  echo "== data-plane bench (smoke) =="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build -j "${JOBS}" --target bench_data_plane
  dp_out="BENCH_data_plane.json"
  ./build/bench/bench_data_plane --smoke --out="${dp_out}"
  # Validate: parseable JSON covering the full shards x batch sweep and
  # the replication x load points, with positive throughput and tails at
  # every point.
  if command -v python3 >/dev/null 2>&1; then
    python3 - "${dp_out}" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["bench"] == "data_plane", doc
assert doc["baseline_scans_per_sec"] > 0, doc
assert doc["speedup_4shard_batch256_vs_baseline"] > 0, doc
points = {(p["shards"], p["batch"]) for p in doc["sweep"]}
want = {(s, b) for s in (1, 2, 4, 8) for b in (1, 16, 64, 256)}
assert points == want, points ^ want
for p in doc["sweep"]:
    assert p["scans_per_sec"] > 0, p
    assert len(p["per_shard"]) == p["shards"], p
    for st in p["per_shard"]:
        assert st["p50_ns"] > 0 and st["p99_ns"] >= st["p50_ns"], st
wide = {(p["replicas_mean"], p["load"]) for p in doc["replication_load"]}
assert wide == {(r, l) for r in (4, 32, 126) for l in ("idle", "saturated")}, wide
for p in doc["replication_load"]:
    assert p["nodes"] == 128 and p["scans_per_sec"] > 0, p
    assert p["p50_ns"] > 0 and p["p99_ns"] >= p["p50_ns"], p
print("bench artifact OK:", len(points), "sweep points,", len(wide),
      "replication x load points")
EOF
  else
    grep -q '"bench": "data_plane"' "${dp_out}"
    grep -q '"speedup_4shard_batch256_vs_baseline"' "${dp_out}"
    grep -q '"replication_load"' "${dp_out}"
    echo "bench artifact OK (grep fallback)"
  fi
  echo
  echo "== transition-scale bench (smoke) =="
  cmake --build build -j "${JOBS}" --target bench_transition_scale
  tr_out="BENCH_transition.json"
  ./build/bench/bench_transition_scale --smoke --out="${tr_out}"
  # Validate: parseable JSON; every instance planned and validated, and
  # the sparse-vs-dense plan-cost identity was exercised on the
  # real2-sized instance (the bench itself CHECK-fails on any mismatch).
  if command -v python3 >/dev/null 2>&1; then
    python3 - "${tr_out}" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["bench"] == "transition_scale", doc
assert doc["results"], doc
for r in doc["results"]:
    assert r["nodes_new"] > 0 and r["fragments"] > 0, r
    assert r["plan_ms"] > 0 and r["validate_ms"] > 0, r
real2 = [r for r in doc["results"] if r["instance"] == "real2"]
assert len(real2) == 1, doc
assert real2[0]["nodes_new"] >= 100, real2
assert real2[0]["cost_identity_checked"], real2
print("bench artifact OK:", len(doc["results"]), "instances")
EOF
  else
    grep -q '"bench": "transition_scale"' "${tr_out}"
    grep -q '"instance": "real2"' "${tr_out}"
    grep -q '"cost_identity_checked": true' "${tr_out}"
    echo "bench artifact OK (grep fallback)"
  fi
  echo
  # The benchmark subclasses ScanRouter and DistributionSystem, so an
  # interface change that breaks it fails here rather than at the next
  # benchmark run. real2 replays nashdb_sim's reference trace through
  # every reconfiguration round and checks its figures; stream runs the
  # high-replication data plane and checks that repeated passes agree.
  # Seed-0 digests of each workload's simulated outputs (one per input,
  # joined by '+'), as e2ebench/run.py prints them.
  declare -A E2E_DIGEST=(
    [real2]=5b3a623b8c59412f
    [stream]=882d52a7f404f696+23ce294b733054ea+fa0840aa6176de96+2b6089e7dea6da61
    [chaos]=dba3e2cc4794976d+3768566962293156+60c7d74a7427d842+995eddfce067f8bd
  )
  e2e_log="$(mktemp)"
  trap 'rm -f "${e2e_log}"' EXIT
  for workload in chaos stream real2; do
    echo "== end-to-end benchmark (${workload} smoke) =="
    python3 e2ebench/run.py --workload "${workload}" --seed 0 --seconds 1 \
      --trace 0 | tee "${e2e_log}"
    python3 - "${e2e_log}" "${workload}" "${E2E_DIGEST[${workload}]}" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    text = f.readlines()
lines = [line for line in text if line.startswith("{")]
assert lines, "e2ebench printed no result line"
result = json.loads(lines[-1])
assert result.get("correct") is True, result
digests = [line.split()[1] for line in text
           if line.startswith("  digest ")]
assert digests, "e2ebench printed no digest line"
if digests[-1] != sys.argv[3]:
    sys.exit(f"e2e {sys.argv[2]}: seed-0 digest {digests[-1]} != pinned "
             f"{sys.argv[3]} (a simulated output moved)")
print("e2e", sys.argv[2], "smoke OK: correct, digest pinned, failed =",
      result["failed"])
EOF
    echo
  done
  echo "check.sh: bench smoke green (${dp_out}, ${tr_out}," \
       "e2e chaos, stream and real2)"
  exit 0
fi

if [[ "${STATIC}" == "1" ]]; then
  echo "== nashdb_lint (project-contract gates) =="
  # The lint gate runs first, before cmake has ever created build/ —
  # on a fresh checkout the report directory must exist up front.
  mkdir -p build
  python3 tools/nashdb_lint.py --json build/nashdb_lint.json || exit 10

  echo
  echo "== header self-containment (header_tu_gate) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "${JOBS}" --target header_tu_gate || exit 11
  echo "header_tu_gate: every public src/ header compiles standalone"

  echo
  echo "== clang-format (tools/format.sh --check) =="
  tools/format.sh --check || exit 12

  echo
  echo "== clang-tidy (tools/tidy.sh --all) =="
  tools/tidy.sh --all || exit 13

  echo
  echo "== thread-safety analysis =="
  if command -v clang++ >/dev/null 2>&1; then
    # The root CMakeLists adds -Wthread-safety -Werror=thread-safety
    # whenever the compiler is Clang; a clean build IS the check.
    cmake -B build-clang -S . -DCMAKE_BUILD_TYPE=Release \
          -DCMAKE_CXX_COMPILER=clang++ >/dev/null || exit 14
    cmake --build build-clang -j "${JOBS}" || exit 14
    echo "thread-safety: clean"
  else
    echo "check.sh: clang++ not found; skipping the thread-safety pass" \
         "(GCC does not implement the analysis)"
  fi

  echo
  echo "check.sh: static analysis green (report: build/nashdb_lint.json)"
  exit 0
fi

echo "== plain build + tier-1 tests =="
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build -j "${JOBS}"
ctest --test-dir build -L tier1 --no-tests=error --output-on-failure \
      -j "${JOBS}"

# Chaos-scenario acceptance gates (DESIGN.md 13): every committed
# scenarios/*.scn spec end to end through nashdb_sim --scenario,
# including the negative SLO gate and the malformed-spec gate. JSON
# reports land in build/scenario_reports/ (CI uploads them).
echo
echo "== scenario gates (ctest -L scenario) =="
ctest --test-dir build -L scenario --no-tests=error --output-on-failure \
      -j "${JOBS}"

# sanitized_pass NAME SANITIZE_VALUE QUICK_LABEL [ENV=VAL ...]
sanitized_pass() {
  local name="$1" sanitize="$2" quick_label="$3"
  shift 3
  echo
  echo "== ${name}-sanitized build =="
  cmake -B "build-${name}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DNASHDB_SANITIZE="${sanitize}" >/dev/null
  cmake --build "build-${name}" -j "${JOBS}"
  local label="tier1"
  if [[ "${QUICK}" == "1" ]]; then
    label="${quick_label}"
  fi
  env "$@" ctest --test-dir "build-${name}" -L "${label}" \
      --no-tests=error --output-on-failure -j "${JOBS}"
}

sanitized_pass tsan thread 'tsan|online|transition'

# The sharded data plane's real concurrency — one SPSC ring per shard,
# consumers against a shared read-only epoch — under TSan: one tpch run
# with 4 shards. Races here would never surface in the single-threaded
# tier-1 tests.
echo
echo "== TSan sharded-driver run (--shards=4) =="
cmake --build build-tsan -j "${JOBS}" --target nashdb_sim
./build-tsan/tools/nashdb_sim --workload=tpch --shards=4 --batch=64 \
    >/dev/null
echo "sharded driver: clean under TSan"

# Online reconfiguration under TSan (DESIGN.md 12): the serial control
# plane runs the fault scenario with background epoch builds
# (BuildConfigAsync racing the admission loop), then the sharded data
# plane publishes epochs over the release/acquire chain while 4 shards
# route. Both concurrency surfaces are exercised by one command.
echo
echo "== TSan online-reconfig run (--online-reconfig --faults --shards=4) =="
./build-tsan/tools/nashdb_sim --workload=bernoulli --scale=0.05 \
    --online-reconfig --build-window=600 \
    --faults='crash@7200:n0:for=1800;mttf=43200;mttr=3600' \
    --shards=4 --batch=64 >/dev/null
echo "online reconfiguration: clean under TSan"

# One full chaos scenario under TSan: correlated rack failure with
# emergency repair — fault delivery, coverage-gap retries, and repair
# transitions all race the reconfiguration thread pool here and nowhere
# in the single-threaded tier-1 tests. (streaming_10m is deliberately
# not run under TSan; its 10^7 queries would take tens of minutes.)
echo
echo "== TSan scenario run (rack_failure.scn) =="
./build-tsan/tools/nashdb_sim --scenario=scenarios/rack_failure.scn \
    >/dev/null
echo "scenario engine: clean under TSan"

sanitized_pass asan address 'faults|plane|value|control' \
    ASAN_OPTIONS=halt_on_error=1
sanitized_pass ubsan undefined 'faults|plane|value|control' \
    UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1

echo
echo "check.sh: all suites green"
