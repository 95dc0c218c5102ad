#!/bin/sh
# Public surface of the product: every line whose first token is `pub` —
# items (fn, struct, enum, trait, const, static, type, mod, use) and
# fields; `pub(crate)` and narrower do not count — per crate under
# crates/*/src, src and shims/*/src, each file counted up to its first
# `#[cfg(test)]` like loc.sh. This is the "public surface removed/added"
# line a CHANGES.md entry reports.
# Prints one line per crate, then the total; exits 1 if the total is above
# the ceiling below. Raising the ceiling takes a CHANGES.md line saying why;
# a change that lowers the total lowers the ceiling to it.
#
# With --census, prints `crate file:line name` instead, for every `pub` line
# that nothing outside its crate reads, over the same files and cut-off:
# - each item or field under crates/*/src whose name occurs as a word in no
#   .rs file outside that crate's library sources (other crates, the
#   crate's tests/ and examples/, its binaries, the root src/, tests/ and
#   examples/, and benchmark/src are all outside). A `pub use` is judged
#   where the names it re-exports are defined;
# - every `pub` line of a binary target (crates/*/src/bin), which nothing
#   outside it can name.
# The census always exits 0.
ceiling=1006
cd "$(dirname "$0")/.." || exit 1
if [ "$1" = "--census" ]; then
    find crates src tests examples benchmark/src shims -name '*.rs' -not -path '*/target/*' |
        sort | xargs awk '
        FNR == 1 {
            stop = 0
            split(FILENAME, part, "/")
            binary = part[1] == "crates" && part[3] == "src" && part[4] == "bin"
            library = part[1] == "crates" && part[3] == "src" && !binary
            # Words of a library file belong to its crate; any other file
            # is outside every crate but its own.
            owner = library ? part[1] "/" part[2] : FILENAME
        }
        /#\[cfg\(test\)\]/ { stop = 1 }
        (library || binary) && !stop && /^[ \t]*pub[ \t]/ {
            split($0, tok, /[^A-Za-z0-9_]+/)
            # tok[1] is empty (indent) or "pub"; find the first token after pub.
            i = tok[1] == "" ? 3 : 2
            while (tok[i] ~ /^(const|unsafe|async)$/ && tok[i + 1] != "") i++
            name = tok[i] ~ /^(fn|struct|enum|trait|const|static|type|mod|union)$/ ? tok[i + 1] : tok[i]
            if (binary) print part[1] "/" part[2], FILENAME ":" FNR, name
            else if (tok[i] != "use") { ++items; crate[items] = owner; at[items] = FILENAME ":" FNR; id[items] = name }
        }
        {
            line = $0
            gsub(/[^A-Za-z0-9_]+/, " ", line)
            nw = split(line, w, " ")
            for (k = 1; k <= nw; k++) {
                if (!(w[k] in first)) first[w[k]] = owner
                else if (first[w[k]] != owner) shared[w[k]] = 1
            }
        }
        END {
            for (k = 1; k <= items; k++)
                if (!(id[k] in shared)) print crate[k], at[k], id[k]
        }'
    exit 0
fi
find crates/*/src src shims/*/src -name '*.rs' | sort | xargs awk -v ceiling="$ceiling" '
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
        if (total > ceiling) {
            print "public surface " total " is above the ceiling " ceiling " in tools/pub_items.sh" > "/dev/stderr"
            exit 1
        }
    }' || exit 1
