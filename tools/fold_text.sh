#!/bin/sh
# How many times the grouping fold is compiled into a binary: every text
# symbol whose demangled name mentions `dqo_parallel::grouping`, grouped
# by name (the symbol hash dropped, so each monomorphised copy of one
# function counts under one row; every drop glue under one row), with its
# copies and bytes, largest first, then a total row and the binary's
# whole text size. Reads `nm -C -S`; builds nothing.
#
#   tools/fold_text.sh                      # spine/target/release/spine
#   tools/fold_text.sh target/release/dqo-bench
set -eu
cd "$(dirname "$0")/.."
bin=${1:-spine/target/release/spine}
[ -f "$bin" ] || { echo "no binary at $bin (build it first)" >&2; exit 2; }

echo "| symbol in \`dqo_parallel::grouping\` | copies | bytes |"
echo "|---|---:|---:|"
nm -C -S -t d "$bin" | awk '
    $3 ~ /^[tTwW]$/ && /dqo_parallel::grouping/ {
        name = $0
        sub(/^[0-9]+ [0-9]+ [tTwW] /, "", name)
        sub(/::h[0-9a-f]+$/, "", name)
        sub(/[ \t]+$/, "", name)
        if (name ~ /^core::ptr::drop_in_place</) name = "core::ptr::drop_in_place<..>"
        copies[name]++; bytes[name] += $2
        total_copies++; total_bytes += $2
    }
    END {
        for (name in copies) printf "%d\t%d\t%s\n", bytes[name], copies[name], name
        printf "%d\t%d\t%s\n", -1, total_copies, "**total** " total_bytes
    }
' | sort -t "$(printf '\t')" -k1,1nr | awk -F '\t' '
    $1 < 0 { split($3, t, " "); total = sprintf("| %s | %d | %d |", t[1], $2, t[2]); next }
    { gsub(/\|/, "\\|", $3); printf "| `%s` | %d | %d |\n", $3, $2, $1 }
    END { print total }
'
size "$bin" | awk 'NR == 2 { printf "\n%s: text %d bytes\n", $6, $1 }'
