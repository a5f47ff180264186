#!/bin/sh
# Prints, for each crate under crates/, the lines of its src/*.rs files that
# come before each file's first unindented `#[cfg(test)]` (a whole file when
# it has none), and the total over all crates. These are the non-test lines
# ROADMAP.md's "Size" counts. Reports only; it always exits 0.
#
# Usage: scripts/nontest-lines.sh   (from anywhere inside the repository)
cd "$(dirname "$0")/.." || exit 0
total=0
for crate in crates/*/; do
    lines=0
    for file in "$crate"src/*.rs; do
        [ -f "$file" ] || continue
        n=$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
        lines=$((lines + n))
    done
    printf '%-12s %6d\n' "$(basename "$crate")" "$lines"
    total=$((total + lines))
done
printf '%-12s %6d\n' total "$total"
exit 0
