#!/usr/bin/env bash
# One parallel vocabulary: algorithms fork through `pargeo-parlay` (par_do,
# par_do_if and the loop family), which alone sits on `pargeo_sched::join`.
# Fails if a rayon dependency or path, a parallel-iterator call, the retired
# PARGEO_GRAIN knob or the retired sample sort reappears anywhere, a direct
# scheduler join outside crates/parlay and crates/sched, or if a recursion
# spells its sequential cutoff as
# `if n >= CUTOFF { par_do(a, b) } else { (a(), b()) }` — two copies of
# both sides — where `par_do_if(n >= CUTOFF, a, b)` writes them once. Plain
# grep, no dependency.
set -u
cd "$(dirname "$0")/.."

status=0
check() { # check <what> <regex> [grep options / paths...]
    local what=$1 pattern=$2
    shift 2
    local hits
    hits=$(grep -rnE "$pattern" "$@" 2>/dev/null)
    if [ -n "$hits" ]; then
        echo "parallel vocabulary: $what" >&2
        echo "$hits" >&2
        status=1
    fi
}

trees=(crates tests examples)
check "rayon dependency or path" '^rayon\b|rayon::|use rayon|shims/rayon' \
    --include='*.rs' --include='Cargo.toml' "${trees[@]}" Cargo.toml
check "parallel-iterator call" 'par_iter|par_chunks' --include='*.rs' "${trees[@]}"
check "retired PARGEO_GRAIN knob" 'PARGEO_GRAIN' "${trees[@]}" .github
# One comparison sort: the slice's own `sort_unstable_by`.
check "retired sample sort" 'sample_?sort' "${trees[@]}"
check "direct scheduler join outside parlay" 'sched::join' --include='*.rs' \
    --exclude-dir=parlay --exclude-dir=sched "${trees[@]}"
# A `par_do(` on the line after an `if … {` is the hand-written conditional
# fork (crates/parlay holds the one inside `par_do_if` itself).
hits=$(grep -rn -B1 'par_do(' --include='*.rs' --exclude-dir=parlay "${trees[@]}" |
    grep -E '\.rs-[0-9]+-.*\bif\b.*\{[[:space:]]*$')
if [ -n "$hits" ]; then
    echo "parallel vocabulary: conditional fork written out, use par_do_if" >&2
    echo "$hits" >&2
    status=1
fi

[ "$status" -eq 0 ] && echo "parallel vocabulary: ok"
exit "$status"
