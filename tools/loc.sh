#!/bin/sh
# Product-code size of crates/*/src, counted the way the simplicity PRs
# agreed: a file's "lines" are those before its first `#[cfg(test)]`, and
# its "code" lines are those minus blank lines and `//` comment lines
# (doc comments included). Prints a markdown table: one row per crate,
# then one row per file. Nothing outside crates/*/src is counted.
#
#   tools/loc.sh            # whole table
#   tools/loc.sh av         # only rows whose path contains "av"
set -eu
cd "$(dirname "$0")/.."

find crates/*/src -name '*.rs' | LC_ALL=C sort | xargs awk -v filter="${1:-}" '
    function flush_file() {
        if (file == "") return
        crate = file; sub(/\/src\/.*/, "", crate)
        crate_lines[crate] += lines; crate_code[crate] += code
        if (!(crate in seen)) { seen[crate] = 1; crates[++ncrates] = crate }
        files[++nfiles] = file; file_lines[file] = lines; file_code[file] = code
    }
    FNR == 1 { flush_file(); file = FILENAME; lines = code = 0; in_tests = 0 }
    /^[ \t]*#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests { next }
    { lines++ }
    !/^[ \t]*$/ && !/^[ \t]*\/\// { code++ }
    END {
        flush_file()
        print "| path | lines before `#[cfg(test)]` | code lines |"
        print "|---|---:|---:|"
        for (i = 1; i <= ncrates; i++) {
            c = crates[i]
            if (index(c, filter)) printf "| **%s** | %d | %d |\n", c, crate_lines[c], crate_code[c]
            total_lines += crate_lines[c]; total_code += crate_code[c]
        }
        if (filter == "") printf "| **total** | %d | %d |\n", total_lines, total_code
        for (i = 1; i <= nfiles; i++) {
            f = files[i]
            if (index(f, filter)) printf "| %s | %d | %d |\n", f, file_lines[f], file_code[f]
        }
    }
'
