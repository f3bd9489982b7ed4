#!/usr/bin/env bash
# Configures a dedicated build tree with -DLSVD_SANITIZE=address,undefined
# and runs the test suite under it. Usage:
#
#   scripts/run_sanitized_tests.sh [--touched[=BASE] | --tsan] \
#       [build-dir] [ctest-args...]
#
# Defaults to build-asan/ next to the source tree. Extra arguments are
# forwarded to ctest (e.g. -R LsvdDisk to narrow the run). The fault model
# the sanitizers check against is documented in DESIGN.md ("Fault model").
#
# With --touched, only the tests/<name>_test.cc files changed relative to
# BASE (default: the working tree vs HEAD, including untracked files) are
# built and executed, plus every tests/*_test.cc that directly #includes a
# changed src/ header (a changed src/foo.cc counts as a change to
# src/foo.h) — the cheap sanitizer pass the tier-1 ctest flow runs on every
# change (see tests/CMakeLists.txt, `sanitized_touched`). When nothing
# relevant changed it exits 0 without configuring anything.
#
# With --tsan, a separate build tree (default build-tsan/) is configured with
# -DLSVD_SANITIZE=thread and the parallel-engine test binaries — the only
# multithreaded code in the repo — run under ThreadSanitizer (see DESIGN.md
# section 14; tests/CMakeLists.txt registers this as `sanitized_tsan`).
set -eu

SRC_DIR="$(cd "$(dirname "$0")/.." && pwd)"

TOUCHED=0
TSAN=0
BASE="HEAD"
case "${1:-}" in
  --touched)
    TOUCHED=1
    shift
    ;;
  --touched=*)
    TOUCHED=1
    BASE="${1#--touched=}"
    shift
    ;;
  --tsan)
    TSAN=1
    shift
    ;;
esac

if [ "$TSAN" = 1 ]; then
  BUILD_DIR="${1:-$SRC_DIR/build-tsan}"
else
  BUILD_DIR="${1:-$SRC_DIR/build-asan}"
fi
shift || true

if [ "$TSAN" = 1 ]; then
  TSAN_TARGETS="sim_domain_test parallel_determinism_test"
  cmake -S "$SRC_DIR" -B "$BUILD_DIR" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DLSVD_SANITIZE=thread
  # shellcheck disable=SC2086
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target $TSAN_TARGETS
  export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
  status=0
  for t in $TSAN_TARGETS; do
    echo "=== tsan: $t ==="
    "$BUILD_DIR/tests/$t" || status=1
  done
  exit "$status"
fi

if [ "$TOUCHED" = 1 ]; then
  if ! git -C "$SRC_DIR" rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    echo "sanitized: not a git checkout, skipping touched-test pass"
    exit 0
  fi
  changed="$( { git -C "$SRC_DIR" diff --name-only "$BASE" -- tests src;
                git -C "$SRC_DIR" ls-files --others --exclude-standard \
                    -- tests src; } 2>/dev/null | sort -u)"
  tests=""
  for f in $changed; do
    case "$f" in
      tests/*_test.cc) tests="$tests $f" ;;
      src/*.h) headers="${headers:-} $f" ;;
      src/*.cc) headers="${headers:-} ${f%.cc}.h" ;;
    esac
  done
  for h in ${headers:-}; do
    for t in "$SRC_DIR"/tests/*_test.cc; do
      if grep -qF "#include \"$h\"" "$t"; then
        tests="$tests tests/$(basename "$t")"
      fi
    done
  done
  targets=""
  for f in $(printf '%s\n' $tests | sort -u); do
    if [ -f "$SRC_DIR/$f" ]; then  # a deleted test has no target left
      targets="$targets $(basename "$f" .cc)"
    fi
  done
  if [ -z "$targets" ]; then
    echo "sanitized: no touched tests or src headers vs $BASE, nothing to run"
    exit 0
  fi
  echo "sanitized: touched tests vs $BASE:$targets"
fi

cmake -S "$SRC_DIR" -B "$BUILD_DIR" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DLSVD_SANITIZE=address,undefined

# halt_on_error so ctest reports UBSan findings as failures, not log noise.
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}"

if [ "$TOUCHED" = 1 ]; then
  # shellcheck disable=SC2086
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target $targets
  status=0
  for t in $targets; do
    echo "=== sanitized: $t ==="
    "$BUILD_DIR/tests/$t" || status=1
  done
  exit "$status"
fi

cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" "$@"
