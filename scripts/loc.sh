#!/bin/sh
# Non-blank, non-comment Go lines per package: non-test files, tests and
# testdata fixtures apart. With a parent ref (make loc PARENT=<ref>) each
# cell reads "here (delta against the parent)" and only the packages that
# moved are listed, above the totals.
set -eu
cd "$(git rev-parse --show-toplevel)"
count() { # <side> <tree>: one "<side> <file> <lines>" per Go file
	(cd "$2" && find . -name '*.go' -not -path './bench/out/*' | sed 's|^\./||' | xargs awk -v side="$1" '
		!/^[ \t]*$/ && !/^[ \t]*\/\// { n[FILENAME]++ }
		END { for (f in n) print side, f, n[f] }')
}
tmp=$(mktemp -d) && trap 'rm -rf "$tmp"' EXIT
{ count here .; [ -z "${1:-}" ] || { git archive "$1" | tar -x -C "$tmp" && count parent "$tmp"; }; } | awk -v diff="${1:-}" '
	function add(row) { rows[row]; n[$1, row, kind] += $3 }
	function cell(row, k,    h) { h = n["here", row, k] + 0
		return diff == "" ? h : sprintf("%d (%+d)", h, h - n["parent", row, k]) }
	function moved(row, k) { return n["here", row, k] != n["parent", row, k] }
	{ pkg = $2; if (!sub(/\/[^\/]*$/, "", pkg)) pkg = "."
	  kind = $2 ~ /(^|\/)testdata\// ? "testdata" : $2 ~ /_test\.go$/ ? "test" : "code"
	  if (kind == "testdata") sub(/\/testdata\/.*/, "", pkg)
	  add(pkg); add("~total"); if ($2 !~ /^bench\//) add("~total outside bench/") }
	END { print "| package | non-test | tests | testdata |\n|---|---|---|---|"
	  for (r in rows) if (diff == "" || r ~ /^~/ || moved(r, "code") || moved(r, "test") || moved(r, "testdata")) {
	    name = r; sub(/^~/, "", name)
	    printf "%s\t| %s | %s | %s | %s |\n", r, name, cell(r, "code"), cell(r, "test"), cell(r, "testdata") } }
' | { read -r h1; read -r h2; printf '%s\n%s\n' "$h1" "$h2"; LC_ALL=C sort | cut -f2-; }
