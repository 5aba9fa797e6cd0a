#!/usr/bin/env bash
# Prints the workspace's non-test Rust line count: non-blank lines of every
# `crates/*/src/**/*.rs` file, up to (not including) the file's first
# `#[cfg(test)]` line. A report for comparing change sizes, not a gate.
#
# Usage: ci/count_lines.sh [repo-root]
set -euo pipefail

root="${1:-.}"
cd "$root"

# xargs may split the file list over several awk runs; each prints its
# partial count and the last awk sums them.
find crates/*/src -name '*.rs' -print0 \
  | xargs -0 awk '
      FNR == 1 { in_tests = 0 }
      /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
      !in_tests && NF > 0 { n++ }
      END { print n + 0 }' \
  | awk '{ total += $1 } END { print total + 0 }'
