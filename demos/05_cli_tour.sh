#!/bin/sh
# End-to-end tour of the command line: generate data, fit, inspect
# distances, and run a benchmark grid. Everything lands in a scratch
# directory that is printed at the end.
set -eu

PY="${PYTHON:-python3}"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/casfit_tour.XXXXXX")"
echo "working in $WORK"

echo
echo "=== synth: three contaminated instances ==="
"$PY" -m casfit.cli synth --kind outlier --count 400 --sigma-rel 0.05 \
    --fraction 0.3 --instances 3 --seed 1 --out "$WORK/data"
ls "$WORK/data"

echo
echo "=== fit: robust ellipsoid from the first instance ==="
SIGMA=$("$PY" -c "import json;print(json.load(open('$WORK/data/instance_000.json'))['sigma'])")
EPS=$("$PY" -c "print(1.5 * $SIGMA)")
echo "planted noise sigma $SIGMA, threshold $EPS"
"$PY" -m casfit.cli fit "$WORK/data/instance_000.csv" --epsilon "$EPS" \
    --max-iterations 2000 --seed 0 --out "$WORK/model.json"
"$PY" - "$WORK/model.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
print("semiaxes:", [round(v, 4) for v in doc["semiaxes"]])
print("center:  ", [round(v, 4) for v in doc["center"]])
print("inlier ratio:", round(doc["inlier_ratio"], 4))
print("iterations:", doc["iterations"])
EOF

echo
echo "=== distances: every metric for the fitted model ==="
"$PY" -m casfit.cli distances "$WORK/data/instance_000.csv" "$WORK/model.json" \
    --out "$WORK/distances.csv"
head -3 "$WORK/distances.csv"
echo "... ($(wc -l < "$WORK/distances.csv") lines)"

echo
echo "=== bench: a miniature method comparison ==="
cat > "$WORK/grid.json" <<'EOF'
{
  "variants": [
    {"name": "blended+refit", "score_metric": "cas:0.5",
     "epsilon_rel_sigma": 1.5, "max_iterations": 1000},
    {"name": "sampson-plain", "score_metric": "sampson", "local_opt": false,
     "epsilon_rel_sigma": 1.5, "max_iterations": 1000}
  ],
  "datasets": [
    {"kind": "outlier", "point_count": 300, "sigma_rel": 0.1,
     "outlier_fraction": 0.3, "instance_count": 2, "seed": 5}
  ],
  "runs_per_instance": 5,
  "seed": 0
}
EOF
"$PY" -m casfit.cli bench "$WORK/grid.json" --out "$WORK/report.csv"
grep aggregate "$WORK/report.csv" | cut -d, -f1,8 | sed 's/,/  semiaxis_err=/'

echo
echo "artifacts kept in $WORK"
