#!/bin/sh
# Public surface of the product: every line whose first token is `pub` —
# items (fn, struct, enum, trait, const, static, type, mod, use) and
# fields; `pub(crate)` and narrower do not count — per crate under
# crates/*/src, src and shims/*/src, each file counted up to its first
# `#[cfg(test)]` like loc.sh. This is the "public surface removed/added"
# line a CHANGES.md entry reports.
# Prints one line per crate, then the total.
cd "$(dirname "$0")/.." || exit 1
find crates/*/src src shims/*/src -name '*.rs' | sort | xargs awk '
    FNR == 1 {
        stop = 0
        split(FILENAME, part, "/")
        crate = part[1] == "src" ? "." : part[1] "/" part[2]
        if (!(crate in n)) { n[crate] = 0; order[++crates] = crate }
    }
    /#\[cfg\(test\)\]/ { stop = 1 }
    !stop && /^[ \t]*pub[ \t]/ { n[crate]++; total++ }
    END {
        for (i = 1; i <= crates; i++) print n[order[i]], order[i]
        print total
    }'
