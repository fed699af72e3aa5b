#!/bin/sh
# Non-test Rust lines per crate: every line of crates/*/src/**/*.rs up to
# (not including) the file's first `#[cfg(test)]`. This is the counting
# rule behind ROADMAP's "fewer non-test lines" targets.
# Usage: scripts/loc.sh [repo-root]
cd "${1:-$(dirname "$0")/..}" || exit 1
total=0
for crate in crates/*/; do
    lines=$(find "${crate}src" -name '*.rs' -exec awk '
        FNR == 1 { counting = 1 }
        /^#\[cfg\(test\)\]/ { counting = 0 }
        counting { n++ }
        END { print n + 0 }' {} +)
    printf '%-10s %6d\n' "$(basename "$crate")" "$lines"
    total=$((total + lines))
done
printf '%-10s %6d\n' total "$total"
