#!/bin/sh
# Prints every flag of the run commands as "command -name type default",
# one per line, from each command's -h output. CI diffs this against
# cmd/flags.golden so a refactor cannot add, drop or re-default a flag.
#
#	sh cmd/flag-inventory.sh | diff -u cmd/flags.golden -
set -e
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
for c in hunter-tune hunter-repro hunter-fleet hunter-bench; do
	go build -o "$bin/$c" "./cmd/$c"
	"$bin/$c" -h 2>&1 | awk -v cmd="$c" '
		function flush() { if (name != "") print cmd, name, type, def }
		/^  -/ {
			flush()
			split(substr($0, 3), part, "\t")
			n = split(part[1], w, " ")
			name = w[1]; type = (n > 1 ? w[2] : "bool"); def = "-"
			usage = part[2]
		}
		/^    \t/ { usage = $0 }
		{ if (match(usage, /\(default .*\)$/)) def = substr(usage, RSTART + 9, RLENGTH - 10) }
		END { flush() }'
done
