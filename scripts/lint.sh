#!/usr/bin/env bash
# Static-analysis gate: clang-tidy over src/, the srp-lint invariant
# passes, plus a clang-format check.
#
# Usage:
#   scripts/lint.sh [build-dir]
#
# The build dir must contain compile_commands.json (the top-level
# CMakeLists exports it; configure with `cmake -B build -S .` first).
#
# Exit status is non-zero on any clang-tidy finding (WarningsAsErrors: '*'
# in .clang-tidy) or any formatting diff.  When a tool is not installed the
# corresponding step is skipped with a notice — set LINT_REQUIRE_TOOLS=1
# (as CI does) to turn a missing tool into a failure instead.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
cd "${repo_root}"

find_tool() {
  # Picks the plain name or the highest versioned variant (clang-tidy-18 …).
  local base="$1" candidate
  if command -v "${base}" >/dev/null 2>&1; then
    echo "${base}"
    return 0
  fi
  # Version-aware sort: `sort -t- -k3 -n` keyed on the third dash field,
  # which is empty for two-field names like clang-18 (the base name's own
  # dash count varies), silently picking an arbitrary candidate.
  candidate="$(compgen -c "${base}-" 2>/dev/null | grep -E "^${base}-[0-9]+$" |
               sort -V | tail -1 || true)"
  if [[ -n "${candidate}" ]]; then
    echo "${candidate}"
    return 0
  fi
  return 1
}

missing_tool() {
  local name="$1"
  if [[ "${LINT_REQUIRE_TOOLS:-0}" == "1" ]]; then
    echo "lint.sh: ${name} not found and LINT_REQUIRE_TOOLS=1" >&2
    exit 1
  fi
  echo "lint.sh: ${name} not found; skipping (set LINT_REQUIRE_TOOLS=1 to fail)"
}

status=0

# --- clang-tidy -----------------------------------------------------------
if tidy="$(find_tool clang-tidy)"; then
  if [[ ! -f "${build_dir}/compile_commands.json" ]]; then
    echo "lint.sh: ${build_dir}/compile_commands.json missing;" \
         "run: cmake -B ${build_dir} -S ." >&2
    exit 1
  fi
  echo "lint.sh: running ${tidy} over src/"
  mapfile -t sources < <(git ls-files 'src/**/*.cpp')
  if ! "${tidy}" -p "${build_dir}" --quiet "${sources[@]}"; then
    echo "lint.sh: clang-tidy reported findings" >&2
    status=1
  fi
else
  missing_tool clang-tidy
fi

# --- srp-lint (project invariant passes) ----------------------------------
# Pure Python, no toolchain dependency: determinism (with the thread ban),
# hot-path allocation, metric-name and state-switch contracts
# (scripts/srp_lint.py, DESIGN.md §9).
if command -v python3 >/dev/null 2>&1; then
  echo "lint.sh: running srp-lint invariant passes"
  if ! python3 "${repo_root}/scripts/srp_lint.py" --self-test >/dev/null; then
    echo "lint.sh: srp-lint self-test failed" >&2
    status=1
  fi
  if ! python3 "${repo_root}/scripts/srp_lint.py"; then
    echo "lint.sh: srp-lint reported findings" >&2
    status=1
  fi
else
  missing_tool python3
fi

# --- clang-format (check only, no reformat) -------------------------------
if fmt="$(find_tool clang-format)"; then
  echo "lint.sh: checking formatting with ${fmt}"
  mapfile -t all_sources < <(git ls-files '*.cpp' '*.hpp')
  if ! "${fmt}" --dry-run -Werror "${all_sources[@]}"; then
    echo "lint.sh: formatting check failed (run ${fmt} -i on the files above)" >&2
    status=1
  fi
else
  missing_tool clang-format
fi

exit "${status}"
