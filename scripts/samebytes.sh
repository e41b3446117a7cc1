#!/bin/sh
# samebytes.sh REF — do the experiments print the same bytes as at REF?
#
# Builds cmd/replexp from REF (a temporary `git archive` export) and from the
# working tree, then runs on both builds every study replexp -h lists with
#
#	-exp X -scale quick -runs 3 -progress=false -csv DIR
#
# and once `-exp all -extensions -scale quick -progress=false -report FILE`.
# Each build runs in its own directory under the same relative names, so the
# paths the runs echo are identical on both sides. It then diffs stdout, the
# CSV files and the report and prints "samebytes: no difference from REF"
# (exit 0) or the differences (exit 1). Run it from anywhere in the repo:
#
#	scripts/samebytes.sh HEAD~1
set -eu
if [ $# -ne 1 ]; then
	echo "usage: scripts/samebytes.sh REF" >&2
	exit 2
fi
ref=$1
cd "$(dirname "$0")/.."
git rev-parse --verify --quiet "$ref^{commit}" >/dev/null || {
	echo "samebytes: $ref is not a commit" >&2
	exit 2
}
tmp=$(mktemp -d "${TMPDIR:-/tmp}/samebytes.XXXXXX")
trap 'rm -rf "$tmp"' EXIT INT TERM

mkdir -p "$tmp/src" "$tmp/ref" "$tmp/new"
git archive "$ref" | tar -x -C "$tmp/src"
(cd "$tmp/src" && go build -o "$tmp/ref/replexp" ./cmd/replexp)
go build -o "$tmp/new/replexp" ./cmd/replexp

# The -exp usage line names every study: "table1, fig1, ..., all, or one of
# ablation, drift, ...".
studies=$("$tmp/new/replexp" -h 2>&1 | sed -n 's/.*experiment: \(.*\) (default.*/\1/p' |
	sed 's/or one of//; s/,/ /g' | tr -s ' ' '\n' | grep -vx 'all' | grep .)
if [ -z "$studies" ]; then
	echo "samebytes: no study names in replexp -h" >&2
	exit 2
fi

for side in ref new; do
	(
		cd "$tmp/$side"
		for x in $studies; do
			mkdir -p "csv/$x"
			./replexp -exp "$x" -scale quick -runs 3 -progress=false -csv "csv/$x" >"$x.out" 2>&1
		done
		./replexp -exp all -extensions -scale quick -progress=false -report report.md >all.out 2>&1
		rm replexp
	)
done

n=$(echo "$studies" | wc -l)
if diff -r "$tmp/ref" "$tmp/new"; then
	echo "samebytes: no difference from $ref ($n studies, their CSVs and the -exp all -extensions report)"
else
	echo "samebytes: outputs differ from $ref" >&2
	exit 1
fi
