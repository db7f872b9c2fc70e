# Server liveness from `run lease=`: the feeder quits after 200 frames and
# on-demand ETS is off, so only lease expiry can release the tuples the
# union holds for its silent inputs.
. "$(dirname "$0")/lib.sh"
sed 's/ets=on-demand lease=500ms/ets=none lease=500ms/' \
  "$SRC/examples/net_smoke.plan" > lease.plan
grep -q 'ets=none lease=500ms' lease.plan

serve lease --metrics metrics.json lease.plan
feed lease --disconnect-after 200 lease.plan
serve_wait lease
python3 - << 'PY'
import json
metrics = json.load(open('metrics.json'))
fired = metrics['exec.frontier.lease_expired_ets']
assert fired > 0, 'no lease-expired ETS: %r' % fired
expiries = metrics['experiment.frontier.lease_expiries']
assert expiries > 0, 'no frontier lease expiries: %r' % expiries
PY
grep -q 'lease-expired ETS: [1-9]' lease.serve.log
