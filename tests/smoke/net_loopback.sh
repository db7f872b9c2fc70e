# Live path end to end: a server fed its own experiment file over real TCP,
# then strict JSON validation of the metrics and trace artifacts.
. "$(dirname "$0")/lib.sh"
plan=$SRC/examples/net_smoke.plan

serve net --duration 5s --metrics serve.metrics.json \
  --trace serve.trace.json "$plan"
feed net --duration 5s "$plan"
serve_wait net
python3 -m json.tool serve.metrics.json > /dev/null
python3 -m json.tool serve.trace.json > /dev/null
