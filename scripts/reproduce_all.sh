#!/usr/bin/env bash
# Full reproduction kit: tests, benchmarks, experiment reports, examples.
#
# Usage:  bash scripts/reproduce_all.sh [--backend scalar|symbolic]
#                                       [--cache-dir DIR] [--no-cache]
#
#   --backend    exact-analysis route for every stage: scalar (the
#                Diophantine reference) or symbolic (the closed form,
#                instantiated); exported as REPRO_ANALYSIS_BACKEND;
#                default: symbolic
#   --cache-dir  persistent artifact cache root (exported as
#                REPRO_CACHE_DIR); a second run with the same dir skips
#                re-analysis
#   --no-cache   force the artifact cache off even if REPRO_CACHE_DIR is
#                set in the environment
#
# Outputs:
#   test_output.txt           full test run
#   bench_output.txt          full benchmark run
#   benchmarks/_reports/      paper-vs-measured reports per experiment
set -euo pipefail
cd "$(dirname "$0")/.."

while [[ $# -gt 0 ]]; do
    case "$1" in
        --backend)
            export REPRO_ANALYSIS_BACKEND="$2"; shift 2 ;;
        --cache-dir)
            export REPRO_CACHE_DIR="$2"; shift 2 ;;
        --no-cache)
            unset REPRO_CACHE_DIR; shift ;;
        *)
            echo "unknown option: $1" >&2; exit 2 ;;
    esac
done
echo "analysis backend: ${REPRO_ANALYSIS_BACKEND:-symbolic}" \
     " cache: ${REPRO_CACHE_DIR:-off}"

stage_started=$SECONDS
stage_done() {
    echo "== stage '$1' took $((SECONDS - stage_started))s =="
    stage_started=$SECONDS
}

echo "== installing (editable) =="
pip install -e . --no-build-isolation 2>/dev/null || python setup.py develop
stage_done install

echo "== tests =="
pytest tests/ 2>&1 | tee test_output.txt
stage_done tests

echo "== benchmarks (regenerates every figure of the paper) =="
pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt
stage_done benchmarks

echo "== experiment reports =="
python -m repro.experiments
stage_done experiments

echo "== examples =="
for f in examples/*.py; do
    echo "--- $f"
    python "$f" > /dev/null
done
stage_done examples

if [[ -n "${REPRO_CACHE_DIR:-}" ]]; then
    echo "== artifact cache =="
    python -m repro cache stats
fi

echo "ALL REPRODUCTION STEPS COMPLETED in ${SECONDS}s"
