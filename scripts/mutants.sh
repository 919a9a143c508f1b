#!/bin/sh
# Scores a test suite by hand-written source mutants.
#
# usage: scripts/mutants.sh TREE WORK MUTANTS -- TEST-COMMAND...
#        scripts/mutants.sh --check TREE MUTANTS
#
# With --check nothing is copied, built or run: every mutant of MUTANTS is
# applied to TREE's file in memory, each one whose text TREE lacks is
# printed as `id  absent`, and the exit status is 1 when there is one. A
# refactor that removes a mutant's text would otherwise leave the row
# reading `absent`, no longer scored.
#
# Copies the source tree TREE (without `target/` and `.git/`) to WORK/src,
# checks that TEST-COMMAND passes there, then applies each mutant of the
# tab-separated MUTANTS file alone, runs TEST-COMMAND in WORK/src, and
# restores the file. A mutant is `killed` when the command fails or runs
# past 900 seconds (a mutant can make a kernel loop forever), `survived`
# when it passes,
# and `absent` when its text is not in the tree. One line per mutant goes
# to stdout, tab-separated:
#
#     id  verdict  first failing binary::test (or `build`, `timeout`, `-`)
#
# and the command's output to WORK/logs/ID.log. Each MUTANTS line is
#
#     id  file  n  original  replacement
#
# with `file` relative to the tree: the n-th occurrence (from 1) of the
# literal `original` in `file`, on one line, becomes `replacement`. Lines
# that are blank or start with `#` are skipped. The builds go to
# WORK/target, so the tree's own `target/` is never touched; run the
# parent's and a change's suites with two WORK directories and compare
# the verdicts.
set -eu

# The n-th occurrence of ORIGINAL in stdin replaced by REPLACEMENT; exits 1
# when there are fewer than n. ENVIRON keeps backslashes literal.
substitute() {
    awk '
        BEGIN { want = ENVIRON["NTH"] + 0; from = ENVIRON["ORIGINAL"]; to = ENVIRON["REPLACEMENT"] }
        {
            line = $0; out = ""
            while (seen < want && (at = index(line, from)) > 0) {
                seen++
                if (seen == want) {
                    out = out substr(line, 1, at - 1) to
                } else {
                    out = out substr(line, 1, at - 1 + length(from))
                }
                line = substr(line, at + length(from))
            }
            print out line
        }
        END { exit(seen < want) }
    '
}

tab=$(printf '\t')

if [ $# = 3 ] && [ "$1" = "--check" ]; then
    status=0
    while IFS="$tab" read -r id file nth original replacement; do
        case "$id" in '' | '#'*) continue ;; esac
        if ! NTH=$nth ORIGINAL=$original REPLACEMENT=$replacement substitute \
            <"$2/$file" >/dev/null; then
            printf '%s\tabsent\n' "$id"
            status=1
        fi
    done <"$3"
    exit $status
fi

if [ $# -lt 5 ] || [ "$4" != "--" ]; then
    echo "usage: $0 TREE WORK MUTANTS -- TEST-COMMAND..." >&2
    echo "       $0 --check TREE MUTANTS" >&2
    exit 2
fi
tree=$(cd "$1" && pwd)
mkdir -p "$2"
work=$(cd "$2" && pwd)
mutants=$(cd "$(dirname "$3")" && pwd)/$(basename "$3")
shift 4

rm -rf "$work/src"
mkdir -p "$work/src" "$work/logs"
# `-m` stamps every file now: a target left by an earlier run (a mutant
# built last) is then rebuilt, not reused as up to date.
(cd "$tree" && tar --exclude=./target --exclude=./.git -cf - .) | (cd "$work/src" && tar -xmf -)
cd "$work/src"
export CARGO_TARGET_DIR="$work/target"

if ! "$@" >"$work/logs/baseline.log" 2>&1; then
    echo "$0: the tests fail before any mutant; see $work/logs/baseline.log" >&2
    exit 1
fi

while IFS="$tab" read -r id file nth original replacement; do
    case "$id" in '' | '#'*) continue ;; esac
    cp "$file" "$work/pristine"
    if ! NTH=$nth ORIGINAL=$original REPLACEMENT=$replacement substitute \
        <"$work/pristine" >"$file"; then
        cp "$work/pristine" "$file"
        printf '%s\tabsent\t-\n' "$id"
        continue
    fi
    log="$work/logs/$id.log"
    if timeout 900 "$@" >"$log" 2>&1; then
        printf '%s\tsurvived\t-\n' "$id"
    else
        status=$?
        killer=$(awk '
            /^ *Running / { p = $NF; gsub(/[()]/, "", p); n = split(p, a, "/"); bin = a[n]; sub(/-[0-9a-f]+$/, "", bin) }
            /^test .* \.\.\. FAILED$/ { sub(/^test /, ""); sub(/ \.\.\. FAILED$/, ""); print bin "::" $0; exit }
        ' "$log")
        if [ "$status" = 124 ]; then
            killer=timeout
        elif [ -z "$killer" ] && grep -q '^error\(\[E[0-9]*\]\)\?:' "$log"; then
            killer=build
        fi
        printf '%s\tkilled\t%s\n' "$id" "${killer:--}"
    fi
    cp "$work/pristine" "$file"
done <"$mutants"
