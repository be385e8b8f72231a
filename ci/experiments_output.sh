#!/usr/bin/env bash
# Rebuilds experiments_output.txt from the experiment binaries it
# records, in file order, each under its `################ name
# ################` header. The only line dropped is ablation_sweeps'
# `sweep wall-clock` timing, which differs from run to run.
#
# Usage: ci/experiments_output.sh   (from any directory)
# CI runs it and fails on `git diff --exit-code experiments_output.txt`,
# so a change that moves a recorded number must re-commit the file.
set -euo pipefail
cd "$(dirname "$0")/.."

bins=(
  summary
  fig1_iv_curve
  fig2_voc_log
  fig3_system_platform
  fig4_sampling_op
  table1_tracking
  eq2_sampling_error
  sec4_astable_power
  eval_cold_start
  eval_comparison
  ablation_sweeps
  week_endurance
  shading_study
  lighting_mix_study
  tolerance_study
)

cargo build -q --release --locked -p eh-bench --bins
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT
for bin in "${bins[@]}"; do
  echo "################ $bin ################"
  cargo run -q --release --locked -p eh-bench --bin "$bin" | sed '/^sweep wall-clock: /d'
done > "$tmp"
cat "$tmp" > experiments_output.txt
