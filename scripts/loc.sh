#!/bin/sh
# Non-test Rust lines per crate: every line of crates/*/src/**/*.rs up to
# (not including) the file's first `#[cfg(test)]`. This is the counting
# rule behind ROADMAP's "fewer non-test lines" targets.
# Usage: scripts/loc.sh [--max N] [repo-root]
# With --max the script is a ratchet: it exits 1 when the total exceeds N.
max=
if [ "$1" = "--max" ]; then
    max=$2
    shift 2
fi
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
if [ -n "$max" ] && [ "$total" -gt "$max" ]; then
    echo "non-test lines $total exceed the ceiling $max: delete, or raise --max in .github/workflows/ci.yml and say why" >&2
    exit 1
fi
