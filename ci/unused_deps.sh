#!/usr/bin/env bash
# Fails when a package declares a dependency that its sources never name.
#
# For the root manifest and each crates/*/Cargo.toml, every name under
# [dependencies] and [dev-dependencies], with "-" read as "_", must
# appear as a word in that package's .rs files under src/, tests/,
# benches/ and examples/. An edge nothing names still costs build time
# and misstates which crate needs which.
#
# Usage: ci/unused_deps.sh   (from anywhere; prints each unused edge)
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
  dir=$(dirname "$manifest")
  sources=()
  for sub in src tests benches examples; do
    if [ -d "$dir/$sub" ]; then sources+=("$dir/$sub"); fi
  done
  deps=$(awk '
    /^\[/ { in_deps = ($0 == "[dependencies]" || $0 == "[dev-dependencies]"); next }
    in_deps && /^[A-Za-z0-9_-]+[ .=]/ { sub(/[ .=].*/, ""); print }
  ' "$manifest")
  for dep in $deps; do
    word=${dep//-/_}
    if [ ${#sources[@]} -eq 0 ] || ! grep -rqw --include='*.rs' -e "$word" "${sources[@]}"; then
      echo "$manifest: $dep is declared, but no .rs source of the package names $word"
      status=1
    fi
  done
done
exit "$status"
