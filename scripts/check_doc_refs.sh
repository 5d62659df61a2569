#!/usr/bin/env bash
# Cross-references in the design docs (DESIGN.md, EXPERIMENTS.md) and in
# every file under crates/, tests/, examples/, scripts/ and .github/ must
# not go stale. Fails when
#   - a backticked `crates/...`, `scripts/...`, `tests/...` or `bench/...`
#     path names nothing (resolved from the repo root, or from the crate
#     of the file that cites it; globs must match something). `bench/` is
#     only read: the paths cited into it must exist, and no file under it
#     is scanned;
#   - a "DESIGN §N" or "DESIGN §N.M" reference names no heading of
#     DESIGN.md;
#   - a ROADMAP item is cited by number ("ROADMAP item 3", "ROADMAP items
#     3 and 5", "ROADMAP 9(b)"): items are renumbered when the roadmap is
#     re-planned, so these files name the direction instead.
# ROADMAP.md and CHANGES.md are not scanned: they are where numbers and
# history live. Neither is this script, whose examples would match.
# Plain grep, no dependency.
set -u
cd "$(dirname "$0")/.."

files=$(git ls-files DESIGN.md EXPERIMENTS.md crates tests examples scripts .github |
    grep -vE '\.lock$|^scripts/check_doc_refs\.sh$')
status=0

# The directory of the nearest Cargo.toml above file $1 ("" when none).
crate_of() {
    local d
    d=$(dirname "$1")
    while [ "$d" != "." ] && [ ! -e "$d/Cargo.toml" ]; do
        d=$(dirname "$d")
    done
    [ "$d" = "." ] || echo "$d"
}

while IFS=: read -r file line ref; do
    path=${ref//\`/}
    path=${path%%:*}
    crate=$(crate_of "$file")
    found=0
    for base in . ${crate:+"$crate"}; do
        if compgen -G "$base/$path" >/dev/null; then
            found=1
        fi
    done
    if [ "$found" -eq 0 ]; then
        echo "doc refs: $file:$line: \`$path\` does not exist" >&2
        status=1
    fi
done < <(grep -noE '`(crates|scripts|tests|bench)/[^` ]+`' $files)

headings=$(grep -oE '^#+ §[0-9]+(\.[0-9]+)?' DESIGN.md | grep -oE '[0-9]+(\.[0-9]+)?')
while IFS=: read -r file line ref; do
    section=$(echo "$ref" | grep -oE '[0-9]+(\.[0-9]+)?$')
    if ! echo "$headings" | grep -qxF "$section"; then
        echo "doc refs: $file:$line: \"$ref\" names no heading of DESIGN.md" >&2
        status=1
    fi
done < <(grep -noE 'DESIGN(\.md)? §[0-9]+(\.[0-9]+)?' $files)

while IFS=: read -r file line ref; do
    echo "doc refs: $file:$line: \"$ref\" cites a ROADMAP item by number; name the direction" >&2
    status=1
done < <(grep -noE 'ROADMAP (items? [0-9]+|[0-9]+\([a-z]\))' $files)

[ "$status" -eq 0 ] && echo "doc refs: ok ($(echo "$files" | wc -l) files)"
exit "$status"
