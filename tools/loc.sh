#!/usr/bin/env bash
# Non-test line count of the two crates ROADMAP's "quality of design"
# aim tracks: for every file under crates/core/src and crates/server/src,
# the lines up to and including its first `#[cfg(test)]` (all of them if
# it has none).
# Prints per file, per crate and total, and fails if the total exceeds
# the ratchet below — lower it in the PR that earns it, never raise it.
set -euo pipefail
cd "$(dirname "$0")/.."

RATCHET=15371

total=0
for crate in crates/core/src crates/server/src; do
    sum=0
    while IFS= read -r file; do
        n=$(awk '{ n++ } /#\[cfg\(test\)\]/ { exit } END { print n + 0 }' "$file")
        printf '%7d  %s\n' "$n" "$file"
        sum=$((sum + n))
    done < <(find "$crate" -name '*.rs' | sort)
    printf '%7d  %s (crate)\n' "$sum" "$crate"
    total=$((total + sum))
done
printf '%7d  total (ratchet %d)\n' "$total" "$RATCHET"
if [ "$total" -gt "$RATCHET" ]; then
    echo "loc.sh: non-test lines grew past the ratchet" >&2
    exit 1
fi
