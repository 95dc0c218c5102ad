#!/bin/sh
# Document references: every `experiments/prNN.md` path named in a tracked
# .md, .rs, .yml or .sh file must exist, and no two headings across
# EXPERIMENTS.md and experiments/*.md may have the same title (a quoted
# section title then finds exactly one place). Headings inside ``` fences
# are not headings.
# Prints one line per finding; exits 1 if there is any.
cd "$(dirname "$0")/.." || exit 1
status=0
for path in $(git ls-files '*.md' '*.rs' '*.yml' '*.sh' |
    xargs grep -ohE 'experiments/pr[0-9]+\.md' | sort -u); do
    if [ ! -f "$path" ]; then
        echo "missing: $path, cited by $(git ls-files '*.md' '*.rs' '*.yml' '*.sh' |
            xargs grep -lF "$path" | tr '\n' ' ')"
        status=1
    fi
done
duplicates=$(awk '
    FNR == 1 { fenced = 0 }
    /^```/ { fenced = !fenced; next }
    !fenced && /^#+ / { title = $0; sub(/^#+ +/, "", title); print title "\t" FILENAME ":" FNR }
' EXPERIMENTS.md experiments/*.md | sort | awk -F '\t' '
    $1 == last { if (!shown) print "repeated heading: " last " (" where ")"; print "repeated heading: " $1 " (" $2 ")"; shown = 1; next }
    { last = $1; where = $2; shown = 0 }
')
if [ -n "$duplicates" ]; then
    echo "$duplicates"
    status=1
fi
exit $status
