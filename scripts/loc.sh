#!/usr/bin/env bash
# Print the git-tracked non-vendor Rust line count: every *.rs file
# under crates/ src/ tests/ examples/. This is the figure each change
# records its net line delta against (see CHANGES.md).
set -euo pipefail
cd "$(dirname "$0")/.."
git ls-files -z 'crates/*.rs' 'src/*.rs' 'tests/*.rs' 'examples/*.rs' | xargs -0 cat | wc -l
