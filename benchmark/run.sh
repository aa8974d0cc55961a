#!/usr/bin/env bash
# The benchmark's one command; every flag is documented in run.py and
# benchmark/README.md.
exec python3 "$(dirname "$0")/run.py" "$@"
