#!/usr/bin/env bash
# CI entry point for environments where GitHub Actions is unavailable
# (mirrors .github/workflows/ci.yml). Runs tools/check.sh — lint, the
# ids-analyzer gates, the trace and observability smokes, and TSan and
# ASan+UBSan ctest at auto and forced-scalar SIMD — then a Release build
# with the same two ctest passes and the observability smoke on the
# Release binary.

set -eu

jobs=$(nproc 2>/dev/null || echo 2)
repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

tools/check.sh

echo "==> Release build (build-ci-release)"
cmake -B build-ci-release -S . -DIDS_WERROR=ON -DCMAKE_BUILD_TYPE=Release
cmake --build build-ci-release -j "$jobs"
echo "==> Release ctest (IDS_SIMD_LEVEL=auto)"
(cd build-ci-release && ctest --output-on-failure -j "$jobs")
echo "==> Release ctest (IDS_SIMD_LEVEL=scalar)"
(cd build-ci-release &&
  IDS_SIMD_LEVEL=scalar ctest --output-on-failure -j "$jobs")

echo "==> observability smoke (Release ncnpr_workflow)"
bash tools/obs_smoke.sh build-ci-release/examples/ncnpr_workflow

echo "==> CI matrix green"
