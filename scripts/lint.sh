#!/usr/bin/env bash
# Lint gate over src/ bench/ examples/ tests/ and scripts/.
#
# Layers, most precise first; every finding is printed with the layer that
# caught it (lint[ast] / lint[grep]):
#   1. bacp-analyze (tools/bacp-analyze): token/AST-level repo checks —
#      determinism hazards (bacp-det-*), snapshot completeness
#      (bacp-snapshot-fields), audit coverage (bacp-audit-coverage), the
#      promoted bans (bacp-arg-lenient, bacp-raw-assert, bacp-raw-strtol)
#      and NOLINT hygiene (bacp-nolint-reason). Opt-outs require
#      `NOLINT(check-id): reason` — a bare marker is itself a finding.
#      Mandatory in every mode: a missing or failing analyzer is exit 1.
#   2. Greps for rules with no AST equivalent (std::unordered_* includes).
#   3. clang-tidy with the checked-in .clang-tidy, if installed.
#   4. shellcheck over scripts/*.sh, if installed.
#
# Usage:
#   scripts/lint.sh                 # skip clang-tidy/shellcheck if missing
#   scripts/lint.sh --require-tools # missing clang-tidy/shellcheck is an
#                                   # error too (CI mode)
#
# The analyzer binary is searched in build/tools/bacp-analyze/ and
# build/*/tools/bacp-analyze/ (build it with
# `cmake --build build --target bacp_analyze`); override with
# BACP_ANALYZE=/path/to/bacp-analyze.
#
# Exit status: 0 clean, 1 findings, a missing/failing analyzer, or (with
# --require-tools) a missing clang-tidy/shellcheck.

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

require_tools=0
if [[ "${1:-}" == "--require-tools" ]]; then
  require_tools=1
elif [[ -n "${1:-}" ]]; then
  echo "usage: scripts/lint.sh [--require-tools]" >&2
  exit 2
fi

fail=0
cxx_dirs=(src bench examples tests)

# --- Layer 1: bacp-analyze (AST) -------------------------------------------

analyzer=""
for candidate in "${BACP_ANALYZE:-}" build/tools/bacp-analyze/bacp-analyze \
                 build/*/tools/bacp-analyze/bacp-analyze; do
  if [[ -n "${candidate}" && -x "${candidate}" ]]; then
    analyzer="${candidate}"
    break
  fi
done
if [[ -z "${analyzer}" ]]; then
  echo "lint: bacp-analyze not built — run: cmake --build build --target bacp_analyze" >&2
  exit 1
fi

set +e
ast_output="$("${analyzer}" --root "${repo_root}" 2>/dev/null)"
ast_status=$?
set -e
case "${ast_status}" in
  0)
    echo "lint[ast]: bacp-analyze clean (${analyzer})"
    ;;
  1)
    echo "lint[ast]: bacp-analyze findings (caught by the AST layer):" >&2
    sed 's/^/lint[ast]: /' <<< "${ast_output}" >&2
    echo >&2
    fail=1
    ;;
  *)
    echo "lint: bacp-analyze failed (exit ${ast_status}) — rebuild it: cmake --build build --target bacp_analyze" >&2
    exit 1
    ;;
esac

# --- Layer 2: grep rules ---------------------------------------------------

# Hash-table iteration order is unspecified and leaks straight into
# artifacts (the sched tenant tables and every report are iteration-ordered).
# Deterministic code uses common::FlatHash64 or std::map; the flat-hash unit
# test keeps std::unordered_map as its reference oracle. Grep-only rule —
# include bans are textual, not structural.
unordered="$(grep -rnE --include='*.cpp' --include='*.hpp' --exclude=test_flat_hash.cpp \
               -e '#include <unordered_' "${cxx_dirs[@]}" | grep -v 'NOLINT' || true)"
if [[ -n "${unordered}" ]]; then
  echo "lint[grep]: std::unordered_* include — use common::FlatHash64 or std::map instead" >&2
  sed 's/^/lint[grep]: /' <<< "${unordered}" >&2
  echo >&2
  fail=1
fi

# --- Layer 3: clang-tidy ---------------------------------------------------

if command -v clang-tidy > /dev/null 2>&1; then
  lint_build="${repo_root}/build/lint"
  if [[ ! -f "${lint_build}/compile_commands.json" ]]; then
    cmake -B "${lint_build}" -S "${repo_root}" \
      -DCMAKE_BUILD_TYPE=Release -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
      -DBACP_AUDIT=ON > /dev/null
  fi
  mapfile -t tidy_sources < <(find "${cxx_dirs[@]}" -name '*.cpp' | sort)
  echo "clang-tidy over ${#tidy_sources[@]} files..."
  if ! clang-tidy -p "${lint_build}" --quiet "${tidy_sources[@]}"; then
    echo "lint[clang-tidy]: clang-tidy reported findings" >&2
    fail=1
  fi
else
  echo "lint: clang-tidy not installed — SKIPPING the clang-tidy layer" >&2
  if [[ "${require_tools}" -eq 1 ]]; then fail=1; fi
fi

# --- Layer 4: shellcheck ---------------------------------------------------

if command -v shellcheck > /dev/null 2>&1; then
  if ! shellcheck scripts/*.sh tools/bacp-analyze/check_fixture.sh; then
    echo "lint[shellcheck]: shellcheck reported findings" >&2
    fail=1
  fi
else
  echo "lint: shellcheck not installed — SKIPPING the shellcheck layer" >&2
  if [[ "${require_tools}" -eq 1 ]]; then fail=1; fi
fi

if [[ "${fail}" -eq 0 ]]; then
  echo "lint: clean"
fi
exit "${fail}"
