#!/usr/bin/env bash
# Fails unless every test named in .github/required-tests.txt exists and
# passed.
#
# usage: .github/required-tests.sh LIST_LOG RUN_LOG
#   LIST_LOG  output (stdout and stderr) of `cargo test --release -- --list`
#   RUN_LOG   output (stdout and stderr) of `cargo test --release`, without
#             `-q`, so that libtest prints one `test NAME ... ok` line per test
set -euo pipefail

required="$(dirname "$0")/required-tests.txt"

# Prints `BINARY NAME` for every test of a cargo test log: the listed ones
# (`list`) or the passed ones (`ok`). A test binary is named by its file
# under `deps/` without the hash; doc tests are skipped.
tests_of() {
    awk -v want="$2" '
        /^ *Running / {
            bin = $0
            sub(/.*\/deps\//, "", bin)
            sub(/-[0-9a-f]+\)$/, "", bin)
            next
        }
        /^ *Doc-tests / { bin = ""; next }
        bin == "" { next }
        want == "list" && / *: test$/ {
            name = $0
            sub(/: test$/, "", name)
            print bin, name
        }
        want == "ok" && /^test .* \.\.\. ok$/ {
            name = $0
            sub(/^test /, "", name)
            sub(/ \.\.\. ok$/, "", name)
            sub(/ - should panic$/, "", name)
            print bin, name
        }
    ' "$1" | sort -u
}

listed="$(mktemp)"
passed="$(mktemp)"
trap 'rm -f "$listed" "$passed"' EXIT
tests_of "$1" list > "$listed"
tests_of "$2" ok > "$passed"

failures=0
count=0
while read -r bin name; do
    [[ -z "$bin" || "$bin" == \#* ]] && continue
    count=$((count + 1))
    if ! grep -qxF "$bin $name" "$listed"; then
        echo "required test missing: $bin $name"
        failures=$((failures + 1))
    elif ! grep -qxF "$bin $name" "$passed"; then
        echo "required test did not pass: $bin $name"
        failures=$((failures + 1))
    fi
done < "$required"

echo "$((count - failures)) of $count required tests listed and passed"
[[ $failures -eq 0 ]]
