#!/usr/bin/env bash
# The mutation ledger: every patch under tools/mutants/ breaks one guarded
# behaviour on purpose, and its `# test:` line holds the `cargo test`
# arguments of the test that must catch it. This copies the working tree
# (tracked and untracked files, minus ignored ones) to a temporary
# directory once; then, for each patch, it runs the named test there (it
# must pass), applies the patch, builds, runs the test again, and fails
# unless it now fails, then takes the patch back out. A patch that no
# longer applies or builds fails too: rewrite it in the change that moved
# its site.
#
#   tools/mutants.sh                          # every entry
#   tools/mutants.sh tools/mutants/foo.patch  # some entries
#
# Builds go to $CARGO_TARGET_DIR if set, else to a directory that is
# removed on exit. Nothing in the repository is modified.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/adoc-mutants.XXXXXX")
trap 'rm -rf "$work"' EXIT
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$work/target}"

if [ $# -eq 0 ]; then
    set -- tools/mutants/*.patch
fi
tree="$work/tree"
mkdir "$tree"
git ls-files -z --cached --others --exclude-standard |
    tar --null --ignore-failed-read -T - -cf - 2>/dev/null | tar -xf - -C "$tree"
run() { (cd "$tree" && cargo test -q "$@" >/dev/null 2>&1); }
failed=0
for patch in "$@"; do
    read -r -a args <<<"$(sed -n 's/^# test: //p' "$patch")"
    verdict=""
    if [ ${#args[@]} -eq 0 ]; then
        verdict="no '# test:' line"
    elif ! run "${args[@]}"; then
        verdict="${args[*]} fails without the mutant"
    elif ! (cd "$tree" && git apply "$root/$patch"); then
        verdict="does not apply"
    else
        if ! run --no-run "${args[@]}"; then
            verdict="the mutant does not build"
        elif run "${args[@]}"; then
            verdict="survived ${args[*]}"
        fi
        (cd "$tree" && git apply -R "$root/$patch")
    fi
    if [ -n "$verdict" ]; then
        echo "FAIL $patch: $verdict" >&2
        failed=1
    else
        echo "ok   $patch: killed by ${args[*]}"
    fi
done
exit $failed
