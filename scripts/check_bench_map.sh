#!/usr/bin/env bash
# EXPERIMENTS.md's "Figure-reproduction map" and crates/bench/src/bin/ name
# the same binaries: fails when a bin has no row in the map, or a row names a
# bin that does not exist. Plain grep, no dependency.
set -u
cd "$(dirname "$0")/.."

rows=$(sed -n '/^## Figure-reproduction map/,/^### /p' EXPERIMENTS.md |
    grep -oE '^\| `[a-z0-9_]+` \|' | tr -d '|` ' | sort)
bins=$(find crates/bench/src/bin -name '*.rs' -exec basename {} .rs \; | sort)

status=0
for b in $(comm -13 <(echo "$rows") <(echo "$bins")); do
    echo "bench map: crates/bench/src/bin/$b.rs has no row in EXPERIMENTS.md" >&2
    status=1
done
for r in $(comm -23 <(echo "$rows") <(echo "$bins")); do
    echo "bench map: EXPERIMENTS.md names \`$r\`, which is not in crates/bench/src/bin/" >&2
    status=1
done

[ "$status" -eq 0 ] && echo "bench map: ok ($(echo "$bins" | wc -l) binaries)"
exit "$status"
