#!/usr/bin/env bash
# Byte-identity check for performance changes: builds reramsim from the
# working tree and from a reference commit and requires identical output.
#
#   make ident                # REF = merge base of HEAD and main
#   make ident REF=<commit>
#
# Compared:
#   - the cold-sweep grid JSON (Base, Hard+Sys, UDRVR+PR x ast_m, mcf_m,
#     mil_m, zeu_m at 1200 accesses) at -jobs 1 and -jobs 2;
#   - a 20000-access run of the same grid on a solve cache warmed by the
#     reference binary, and the cache directory each run leaves behind.
#
# Only local git is used: the reference tree is exported with git
# archive into a temporary directory, which is removed on exit.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
ref=${1:-}
if [ -z "$ref" ]; then
	ref=$(git -C "$root" merge-base HEAD main)
fi
ref=$(git -C "$root" rev-parse --verify "$ref^{commit}")

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/ref"
git -C "$root" archive "$ref" | tar -x -C "$tmp/ref"
go -C "$tmp/ref" build -o "$tmp/reramsim.ref" ./cmd/reramsim
go -C "$root" build -o "$tmp/reramsim.new" ./cmd/reramsim
echo "ident: working tree vs ${ref:0:12}"

grid=(-scheme Base,Hard+Sys,UDRVR+PR -workload ast_m,mcf_m,mil_m,zeu_m)
for jobs in 1 2; do
	for b in ref new; do
		"$tmp/reramsim.$b" "${grid[@]}" -accesses 1200 -jobs "$jobs" -json >"$tmp/cold.$b.$jobs.json"
	done
	cmp "$tmp/cold.ref.$jobs.json" "$tmp/cold.new.$jobs.json"
	echo "ident: cold grid, 1200 accesses, -jobs $jobs: identical"
done

"$tmp/reramsim.ref" "${grid[@]}" -accesses 1200 -solve-cache "$tmp/cache" -json >/dev/null
for b in ref new; do
	cp -r "$tmp/cache" "$tmp/cache.$b"
	"$tmp/reramsim.$b" "${grid[@]}" -accesses 20000 -solve-cache "$tmp/cache.$b" -json >"$tmp/long.$b.json"
done
cmp "$tmp/long.ref.json" "$tmp/long.new.json"
diff -r "$tmp/cache.ref" "$tmp/cache.new"
echo "ident: 20000 accesses on a reference-warmed solve cache: identical output and cache"
