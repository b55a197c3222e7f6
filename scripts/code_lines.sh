#!/bin/sh
# Counts code lines by the repository's size rule: non-blank lines that do
# not start with `//` (after indentation), stopping at each file's test
# module — a column-0 `#[cfg(test)]` line followed by a `mod` line. An
# indented `#[cfg(test)]`, or one guarding any other item, is an ordinary
# code line. A directory argument counts every *.rs file beneath it.
#
# Usage: scripts/code_lines.sh <file-or-dir>...
set -eu
if [ "$#" -eq 0 ]; then
    echo "usage: $0 <file-or-dir>..." >&2
    exit 2
fi
total=0
for path in "$@"; do
    n=$(find "$path" -name '*.rs' -type f | sort | xargs -r awk '
        FNR == 1 { counting = 1; held = 0 }
        held {
            held = 0
            if (/^(pub(\([a-z]+\))? )?mod /) { counting = 0 } else { n++ }
        }
        counting && /^#\[cfg\(test\)\]/ { held = 1; next }
        counting && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
        END { print n + 0 }')
    n=${n:-0}
    printf '%8d  %s\n' "$n" "$path"
    total=$((total + n))
done
printf '%8d  total\n' "$total"
