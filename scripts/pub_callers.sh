#!/usr/bin/env bash
# "Who calls this": for every `pub fn|struct|enum|trait|const|type` declared
# under crates/<c>/src (the bench harness and the offline shims aside), counts
# the files that mention its name in its own crate's src (the declaring file
# included), in other library crates' src, in bench/ledger/src, in
# crates/bench, and in tests/examples, and prints the items no other library
# crate and no ledger file mentions. Report-only (it always exits 0): a row is
# a question — paper figure, oracle, test hook, or delete — not a failure.
# Plain grep on names, so a name shared with an unrelated item (`new`, `len`,
# `build`) counts as mentioned.
set -u
cd "$(dirname "$0")/.."

mentions() { # mentions <name> <paths...>: files containing the whole word
    local name=$1
    shift
    grep -rlw --include='*.rs' -e "$name" "$@" 2>/dev/null | wc -l
}

printf '%-12s %-6s %-36s %4s %4s %6s %5s %5s\n' crate kind item own lib ledger bench tests
for dir in crates/*/; do
    crate=$(basename "$dir")
    [ "$crate" = bench ] || [ "$crate" = shims ] && continue
    others=()
    for other in crates/*/; do
        o=$(basename "$other")
        [ "$o" = "$crate" ] || [ "$o" = bench ] || [ "$o" = shims ] || others+=("crates/$o/src")
    done
    grep -rhoE '^\s*pub (const |unsafe )*(fn|struct|enum|trait|const|type) [A-Za-z_][A-Za-z0-9_]*' \
        "crates/$crate/src" |
        sed -E 's/^\s*pub (const |unsafe )*(fn|struct|enum|trait|const|type) /\2 /' |
        sort -u |
        while read -r kind name; do
            lib=$(mentions "$name" "${others[@]}")
            ledger=$(mentions "$name" bench/ledger/src)
            [ "$lib" -eq 0 ] && [ "$ledger" -eq 0 ] || continue
            own=$(mentions "$name" "crates/$crate/src")
            bench=$(mentions "$name" crates/bench)
            tests=$(mentions "$name" tests examples crates/*/tests)
            printf '%-12s %-6s %-36s %4s %4s %6s %5s %5s\n' \
                "$crate" "$kind" "$name" "$own" "$lib" "$ledger" "$bench" "$tests"
        done
done
