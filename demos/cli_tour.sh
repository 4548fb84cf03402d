#!/bin/sh
# End-to-end tour of the command line: train, evaluate, query the oracle,
# benchmark, and print the reference table.  Works from any directory once
# the package is installed.  About 10 seconds.
set -e

PENALEARN="${PENALEARN:-python3 -m penalearn.cli}"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT
echo "working in $DIR"
echo

echo "== train (shortened run for the tour) =="
$PENALEARN train --problem rosenbrock-1c --seed 0 --epochs 1500 \
    --out "$DIR/rb.model"
echo

echo "== eval on 5 fresh instances =="
$PENALEARN eval --problem rosenbrock-1c --model "$DIR/rb.model" --count 5 \
    --out "$DIR/rb.eval.csv"
head -3 "$DIR/rb.eval.csv"
echo

echo "== oracle on one instance =="
$PENALEARN oracle --problem rosenbrock-1c --params 5,0.1
echo

echo "== benchmark net vs oracle =="
$PENALEARN bench --problem rosenbrock-1c --model "$DIR/rb.model" --count 4 \
    --out "$DIR/rb.bench.csv"
grep '^#' "$DIR/rb.bench.csv"
echo

echo "== reference table =="
$PENALEARN table --problem rosenbrock-1c --model "$DIR/rb.model"
