# The served run's metrics report the executor it actually ran: a plan
# with `run shards=2` must publish exec.shard.shards 2, as the offline
# runner's report does.
. "$(dirname "$0")/lib.sh"
sed 's/^run horizon=5s /run horizon=5s shards=2 /' \
  "$SRC/examples/net_smoke.plan" > shards.plan
grep -q '^run horizon=5s shards=2 ' shards.plan

serve shards --metrics metrics.json shards.plan
feed shards shards.plan
serve_wait shards
python3 - << 'PY'
import json
m = json.load(open('metrics.json'))
assert m['exec.shard.shards'] == 2, m['exec.shard.shards']
PY
