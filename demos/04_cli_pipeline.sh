#!/usr/bin/env bash
# Reproducible command-line pipeline: generate -> fit -> predict -> normalize.
# Every step is deterministic given the seed in the config file.
set -euo pipefail

WORK="${1:-demo_run}"
mkdir -p "$WORK"/data "$WORK"/fit

cat > "$WORK/config.txt" <<'EOF'
# reduced experiment so the demo finishes quickly; raise gen.n_points,
# sampler.n_intervals and sampler.n_sweeps for the full-scale setting
gen.domain = 0,0.5
gen.n_points = 60
gen.n_observed = 48
gen.noise_std = 0.1
gen.seed = 1
kernel.family = se
kernel.length_scale = 0.1
levy.family = tempered_stable
levy.alpha = 0.8
levy.beta = 5.0
levy.n_terms = 400
sampler.n_sweeps = 20
sampler.n_intervals = 40
sampler.seed = 123
EOF

echo "== gen: synthetic dataset from the warped-GP prior"
ngpr gen -c "$WORK/config.txt" --out "$WORK/data"

echo "== fit: warped-GP chain plus GP baselines"
ngpr fit -c "$WORK/config.txt" --data "$WORK/data/dataset.csv" \
    --true-path "$WORK/data/true_path.csv" --out "$WORK/fit"
cat "$WORK/fit/summary.json"

echo "== predict: reuse the stored warp samples at fresh inputs"
printf 'x_0\n0.05\n0.125\n0.33\n0.47\n' > "$WORK/new_points.csv"
ngpr predict --bundle "$WORK/fit" --inputs "$WORK/new_points.csv" \
    --out "$WORK/predictions.csv"
cat "$WORK/predictions.csv"

echo "== simulate: raw subordinator path draws"
ngpr simulate -c "$WORK/config.txt" --set gen.seed=7 --out "$WORK/prior_path.csv" \
    --eval-points 100

echo "== normalize: rescale an input CSV to the unit box"
printf 'x_0,x_1,y\n2.0,30.0,1.0\n8.0,10.0,2.0\n5.0,20.0,3.0\n' > "$WORK/raw.csv"
ngpr normalize --data "$WORK/raw.csv" --out "$WORK/raw_unit.csv"
cat "$WORK/raw_unit.csv"

echo "done; outputs in $WORK/"
