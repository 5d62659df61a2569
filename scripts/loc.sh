#!/usr/bin/env bash
# Non-test lines of every crate's `src/`, and their total: for each `.rs`
# file, the lines above its first `#[cfg(test)]` (the whole file when it
# has none) — the measure every size figure in CHANGES.md quotes:
#   awk '/#\[cfg\(test\)\]/{exit} {n++}'
# Report-only (it always exits 0). The offline shims under `crates/shims/`
# are listed one by one; `tests/`, `examples/` and `bench/` are not counted.
set -u
cd "$(dirname "$0")/.."

nontest() { # nontest <dir>: summed non-test lines of the .rs files under it
    find "$1" -name '*.rs' -print0 | sort -z |
        xargs -0 -r -n1 awk '/#\[cfg\(test\)\]/{exit} {n++} END{print n+0}' |
        awk '{s+=$1} END{print s+0}'
}

total=0
printf '%-24s %7s\n' crate lines
for src in crates/*/src crates/shims/*/src; do
    [ -d "$src" ] || continue
    crate=${src#crates/}
    crate=${crate%/src}
    n=$(nontest "$src")
    total=$((total + n))
    printf '%-24s %7d\n' "$crate" "$n"
done
printf '%-24s %7d\n' total "$total"
