#!/bin/sh
# Options of the product: the `pub` fields of every `pub struct *Config` and
# `pub struct *Spec` under crates/*/src and src (shims are stand-ins for
# published crates and have none of the product's options), each counted up
# to the file's first `#[cfg(test)]`. This is the count the simplicity guide
# asks every PR to report before and after.
# Prints the total; with -v, one line per struct first. Exits 1 if the total
# is above the ceiling below. Raising the ceiling takes a CHANGES.md line
# saying why; a change that lowers the total lowers the ceiling to it.
ceiling=42
cd "$(dirname "$0")/.." || exit 1
find crates/*/src src -name '*.rs' | sort | xargs awk -v verbose="$1" -v ceiling="$ceiling" '
    FNR == 1 { stop = 0; name = "" }
    /#\[cfg\(test\)\]/ { stop = 1 }
    stop { next }
    name == "" && /^pub struct [A-Za-z]*(Config|Spec) \{/ { name = $3; n[name] = 0; order[++structs] = name; next }
    name != "" && /^}/ { name = "" }
    name != "" && /^    pub [a-z_]+:/ { n[name]++; total++ }
    END {
        if (verbose == "-v") for (i = 1; i <= structs; i++) print n[order[i]], order[i]
        print total
        if (total > ceiling) {
            print "option count " total " is above the ceiling " ceiling " in tools/options.sh" > "/dev/stderr"
            exit 1
        }
    }' || exit 1
