# The recovery contract with larger-than-memory state: the crash lands with
# spilled block files live on disk, the checkpoint holds only block
# references, and the restarted server claims the surviving files instead
# of re-writing them. Recovered output must be byte-identical to an
# uninterrupted spilling run's. The plan's spill directory
# (spill-recovery-blocks, relative to the working directory) is shared
# across phases on purpose: a fresh start GCs it, a recovering start claims
# from it.
. "$(dirname "$0")/lib.sh"
plan=$SRC/examples/spill_recovery_smoke.plan

serve ref --no-crash --wal-dir ref "$plan"
feed ref "$plan"
serve_wait ref

serve crash --wal-dir wal "$plan"
feed crash "$plan" || true
serve_wait crash 137
if ! ls spill-recovery-blocks/block-*.blk > /dev/null 2>&1; then
  echo "crash left no spilled block files behind"
  exit 1
fi

serve restart --no-crash --wal-dir wal --metrics metrics.json "$plan"
feed restart --resume --retry 5 --connect-timeout 5s "$plan"
serve_wait restart
cmp ref/sink-OUT.out wal/sink-OUT.out
python3 - << 'PY'
import json
m = json.load(open('metrics.json'))
assert m['storage.spills'] > 0, m
assert m['storage.key_reads'] > 0, m
PY
