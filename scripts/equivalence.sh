#!/usr/bin/env bash
# End-to-end equivalence check on the shipped CLI: -workers changes only
# wall-clock time, never a byte of output. Every listed experiment runs at
# -workers=1 and -workers=4 and the outputs are diffed. fig13 is left out
# only because it is slow.
set -euo pipefail

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/ragnar" ./cmd/ragnar

exps="fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 table5 lossgrid tenants exhaust nvmf pythia defense clos defgrid redn"

for exp in $exps; do
	"$tmp/ragnar" -workers 1 -seed 7 "$exp" >"$tmp/seq.out"
	"$tmp/ragnar" -workers 4 -seed 7 "$exp" >"$tmp/par.out"
	if ! cmp -s "$tmp/seq.out" "$tmp/par.out"; then
		echo "equivalence FAILED for $exp:" >&2
		diff "$tmp/seq.out" "$tmp/par.out" >&2 || true
		exit 1
	fi
	echo "equivalence OK: $exp (-workers=1 == -workers=4)"
done
