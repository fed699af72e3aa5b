#!/bin/sh
# Panic audit: every unwrap/expect/panic-family macro in the non-test code
# (before a file's first `#[cfg(test)]`) of the engine, store and server
# crates, and of the query, common and core crates a wire ADD or FRAME also
# reaches, must say why it cannot fire, in a `// infallible: ...` comment on
# its line or in the comment block right above it. Doc examples and lines
# under an inline `#[cfg(test)]` attribute are exempt.
# Usage: scripts/panic_audit.sh [repo-root]; exits 1 and lists the bare sites.
cd "${1:-$(dirname "$0")/..}" || exit 1
find crates/engine/src crates/store/src crates/server/src crates/query/src crates/common/src crates/core/src -name '*.rs' | sort | xargs awk '
    FNR == 1 { counting = 1; ok = 0; prev = "" }
    /^#\[cfg\(test\)\]/ { counting = 0 }
    !counting { next }
    /^[ \t]*\/\/[\/!]/ { ok = 0; next }
    /^[ \t]*\/\// { if (/infallible:/) ok = 1; next }
    /(panic|unreachable|todo|unimplemented|assert|assert_eq|assert_ne)!|\.unwrap\(\)|\.expect\(/ {
        if (!ok && !/infallible:/ && prev !~ /^[ \t]*#\[cfg\(test\)\]/) {
            print FILENAME ":" FNR ":" $0
            bare++
        }
    }
    { ok = 0; prev = $0 }
    END {
        if (bare) {
            print bare " panic site(s) without an // infallible: comment" > "/dev/stderr"
            exit 1
        }
    }'
