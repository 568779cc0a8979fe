#!/usr/bin/env bash
# Non-test line count of the two crates ROADMAP's "quality of design"
# aim tracks: for every file under crates/core/src and crates/server/src,
# the lines up to and including its first `#[cfg(test)]` (all of them if
# it has none). Also counts the public fields of the two configuration
# structs, `AdocConfig` and `ServerConfig`: every field is a knob an
# operator can turn and a combination the tests must cover.
# Prints per file, per crate and total, then the field counts, and fails
# if either total exceeds its ratchet below — lower a ratchet in the PR
# that earns it, never raise it.
set -euo pipefail
cd "$(dirname "$0")/.."

RATCHET=13819
FIELD_RATCHET=29

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

# `pub name:` lines between `pub struct NAME {` and its closing `}`.
pub_fields() {
    awk -v s="pub struct $1 {" '
        index($0, s) == 1 { inside = 1; next }
        inside && /^}/ { exit }
        inside && /^    pub [a-z_0-9]+:/ { n++ }
        END { print n + 0 }' "$2"
}
fields=0
for spec in AdocConfig:crates/core/src/config.rs ServerConfig:crates/server/src/lib.rs; do
    n=$(pub_fields "${spec%%:*}" "${spec#*:}")
    printf '%7d  %s pub fields\n' "$n" "${spec%%:*}"
    fields=$((fields + n))
done
printf '%7d  config fields (ratchet %d)\n' "$fields" "$FIELD_RATCHET"

if [ "$total" -gt "$RATCHET" ]; then
    echo "loc.sh: non-test lines grew past the ratchet" >&2
    exit 1
fi
if [ "$fields" -gt "$FIELD_RATCHET" ]; then
    echo "loc.sh: config fields grew past the ratchet" >&2
    exit 1
fi
