# Exactly-once across a crash: an uninterrupted reference run, a run the
# plan's `crash at=1s` kills mid-stream (_Exit 137, no flush), then a
# restart from the WAL + checkpoint directory with a resuming feeder. The
# recovered durable sink output must be byte-identical to the reference.
. "$(dirname "$0")/lib.sh"
plan=$SRC/examples/recovery_smoke.plan

serve ref --no-crash --wal-dir ref "$plan"
feed ref "$plan"
serve_wait ref

serve crash --wal-dir wal "$plan"
feed crash "$plan" || true
serve_wait crash 137

serve restart --no-crash --wal-dir wal --metrics metrics.json "$plan"
feed restart --resume --retry 5 --connect-timeout 5s "$plan"
serve_wait restart
cmp ref/sink-OUT.out wal/sink-OUT.out
python3 -m json.tool metrics.json > /dev/null
