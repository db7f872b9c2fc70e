# The paper's figures as a golden smoke: Fig. 7 (latency), Fig. 8 (queue
# memory) and the idle-waiting table, each run --quick with --json and
# --trace. Every artifact must be strictly valid JSON, and the row JSON must
# equal tests/smoke/golden/ byte for byte: the runs use virtual time only,
# so any difference is a behaviour change. BIN_DIR is the bench binary
# directory here.
. "$(dirname "$0")/lib.sh"

for fig in fig7_latency fig8_memory tab_idle_waiting; do
  "$BIN/$fig" --quick --json "$fig.json" --trace "$fig.trace.json" \
    > "$fig.log" 2>&1
  python3 -m json.tool "$fig.json" > /dev/null
  python3 -m json.tool "$fig.trace.json" > /dev/null
  diff -u "$SRC/tests/smoke/golden/$fig.json" "$fig.json"
done
