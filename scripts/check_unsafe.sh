#!/usr/bin/env bash
# `unsafe` is confined to the scheduler and the parallel primitives
# (crates/sched, crates/parlay) and the offline shims (crates/shims). Fails
# if the token `unsafe` appears in any other .rs file under crates/, tests/
# or examples/ on more lines than the file's allowlisted sites below, and
# if any .rs file there, those three crates included, has more lines with
# `unsafe` than `SAFETY:` comments plus `# Safety` doc sections. It also
# fails if crates/sched and crates/parlay together have more lines with
# `unsafe` than the ceiling below: a ratchet, so the count only goes down
# (lower the ceiling when a change removes some). The ledger under bench/ is
# its own package and is not scanned. Plain grep, no dependency.
set -u
cd "$(dirname "$0")/.."

# <file>:<lines with `unsafe`>, each with the reason it cannot be safe code.
allowed=(
    # `Point<D>` as `Point<E>` where `D == E`: an identity cast
    # (`cast_slice`) the type system cannot express.
    "crates/store/src/derived.rs:1"
    # The soak test's counting allocator: `GlobalAlloc` is an unsafe trait.
    "tests/integration_store_soak.rs:3"
)

# Lines with `unsafe` under crates/sched and crates/parlay.
ceiling=48

status=0
while IFS= read -r file; do
    want=0
    for site in "${allowed[@]}"; do
        [ "${site%:*}" = "$file" ] && want=${site##*:}
    done
    if [ "$(grep -cw unsafe "$file")" -gt "$want" ]; then
        echo "unsafe outside sched/parlay: $file (allowlisted lines: $want)" >&2
        grep -nw unsafe "$file" >&2
        status=1
    fi
done < <(grep -rlw --include='*.rs' --exclude-dir=sched --exclude-dir=parlay \
    --exclude-dir=shims unsafe crates tests examples)

while IFS= read -r file; do
    reasons=$(( $(grep -c 'SAFETY:' "$file") + $(grep -c '# Safety' "$file") ))
    if [ "$(grep -cw unsafe "$file")" -gt "$reasons" ]; then
        echo "unsafe without a SAFETY: comment: $file ($reasons reasons)" >&2
        grep -nw unsafe "$file" >&2
        status=1
    fi
done < <(grep -rlw --include='*.rs' unsafe crates tests examples)

count=$(grep -rw --include='*.rs' unsafe crates/sched crates/parlay | wc -l)
if [ "$count" -gt "$ceiling" ]; then
    echo "unsafe in sched/parlay: $count lines, ceiling $ceiling" >&2
    status=1
fi

[ "$status" -eq 0 ] && echo "unsafe confinement, SAFETY comments and ceiling ($count/$ceiling): ok"
exit "$status"
