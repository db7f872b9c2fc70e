# The wire-fault injector (streamets_feed --chaos) against a live server.
# Split: semantics-preserving, so the durable sink output must be
# byte-identical to a fault-free run. Rst: abortive mid-frame resets and
# HELLO/RESUME re-dials must keep the server up with zero decode errors and
# deliver every tuple exactly once. Values must match the reference with
# arrival stamps stripped: arrival-stamped tuples may legally stamp a few
# step-costs later across a reconnect (docs/network_ingest.md).
. "$(dirname "$0")/lib.sh"
plan=$SRC/examples/net_chaos.plan
chaos=(--chaos --resume --retry 5 --backoff 20ms --connect-timeout 5s)

serve ref --wal-dir ref "$plan"
feed ref --resume "$plan"
serve_wait ref

serve split --wal-dir split "$plan"
feed split "${chaos[@]}" "$plan"
serve_wait split
cmp ref/sink-OUT.out split/sink-OUT.out

sed 's/kind=split seed=7 count=5/kind=rst seed=7 count=3/' "$plan" > rst.plan
grep -q 'kind=rst' rst.plan
serve rst --wal-dir rst "$plan"
feed rst "${chaos[@]}" rst.plan
serve_wait rst
grep -q ' 3 reconnects,' rst.feed.log
grep -q ' 0 decode errors' rst.serve.log
diff <(sed 's/@[0-9]*//' ref/sink-OUT.out) <(sed 's/@[0-9]*//' rst/sink-OUT.out)
