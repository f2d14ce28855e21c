#!/bin/sh
# Same-runner performance check: run the benchmark suite on the parent
# commit and on this one, in alternating order, and let `bench -compare`
# judge each pair with the bounds of BENCHMARK.json. A shared runner can
# make one pair read worse by chance; a regression reads worse whichever
# side ran first, so the check fails only when every pair says so.
#
#   sh .github/bench-vs-parent.sh [pairs]     (default 2, ~2 min per pair)
#
# Needs the parent commit in the clone (CI checks out with fetch-depth 2).
set -eu
pairs=${1:-2}
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
git -C "$root" worktree add --detach "$work/parent" HEAD^ >/dev/null
trap 'git -C "$root" worktree remove --force "$work/parent"; rm -rf "$work"' EXIT

suite() { # suite <checkout> <out dir>
	(cd "$1" && go run ./bench -seconds 3 -out "$2" >"$2.log" 2>&1) || { cat "$2.log"; exit 1; }
}

worse=0
i=1
while [ "$i" -le "$pairs" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		suite "$work/parent" "$work/parent-$i"
		suite "$root" "$work/change-$i"
	else
		suite "$root" "$work/change-$i"
		suite "$work/parent" "$work/parent-$i"
	fi
	echo "== pair $i: parent vs change"
	(cd "$root" && go run ./bench -compare "$work/parent-$i/suite-1.json" "$work/change-$i/suite-1.json") || worse=$((worse + 1))
	i=$((i + 1))
done
if [ "$worse" -eq "$pairs" ]; then
	echo "bench: worse than the parent in all $pairs pairs" >&2
	exit 1
fi
