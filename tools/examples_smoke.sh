#!/usr/bin/env bash
# Run every example end to end; any non-zero exit fails.  Outside tier-1.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
trap 'rm -rf examples/*_ckpts' EXIT
for example in examples/*.py; do
    echo "== $example"
    python "$example" > /dev/null
done
echo "examples smoke: all $(ls examples/*.py | wc -l) passed"
