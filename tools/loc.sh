#!/bin/sh
# Non-test product source: the lines of every .rs file under crates/*/src,
# src and shims/*/src, each counted up to its first `#[cfg(test)]`.
# Prints the total; with -v, one line per file first.
cd "$(dirname "$0")/.." || exit 1
find crates/*/src src shims/*/src -name '*.rs' | sort | xargs awk -v verbose="$1" '
    FNR == 1 { if (file != "" && verbose == "-v") print n[file], file; file = FILENAME; stop = 0 }
    /#\[cfg\(test\)\]/ { stop = 1 }
    !stop { n[file]++; total++ }
    END { if (verbose == "-v") print n[file], file; print total }'
