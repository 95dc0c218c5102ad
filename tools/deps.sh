#!/bin/sh
# Unused dependencies: for every workspace package (the root, crates/* and
# shims/*), each [dependencies] and [dev-dependencies] entry whose crate
# name, with `-` read as `_`, never occurs as a word in a .rs file under the
# package's src/, tests/, benches/ and examples/.
# Prints one `manifest: entry` line per finding; exits 1 if there is any.
cd "$(dirname "$0")/.." || exit 1
status=0
for manifest in Cargo.toml crates/*/Cargo.toml shims/*/Cargo.toml; do
    package=$(dirname "$manifest")
    dirs=""
    for d in src tests benches examples; do
        [ -d "$package/$d" ] && dirs="$dirs $package/$d"
    done
    for entry in $(awk '
        /^\[/ { section = $0; next }
        (section == "[dependencies]" || section == "[dev-dependencies]") && /^[A-Za-z0-9_-]/ {
            sub(/[ \t.=].*/, ""); print
        }' "$manifest"); do
        word=$(echo "$entry" | tr - _)
        # $dirs is a list of paths without spaces: split on purpose.
        # shellcheck disable=SC2086
        if [ -z "$dirs" ] || ! grep -rqw --include='*.rs' "$word" $dirs; then
            echo "$manifest: $entry"
            status=1
        fi
    done
done
exit $status
