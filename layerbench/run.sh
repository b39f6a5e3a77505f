#!/bin/sh
# Build the layered benchmark from source, then run it with the given
# arguments (see main.ml for the usage).  Run from anywhere; it works from
# the repository root.
set -e
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . --display quiet ./layerbench/main.exe 1>&2
exec ./_build/default/layerbench/main.exe "$@"
