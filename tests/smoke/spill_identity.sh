# The state store's headline contract: the same join run once with a 4 KiB
# hot budget (state >10x over it, most blocks on disk) and once with an
# unlimited budget must produce byte-identical durable sink output.
. "$(dirname "$0")/lib.sh"
plan=$SRC/examples/spill_join.plan

"$BIN/streamets_run" --sink-dump spill-out --spill-dir blocks "$plan" \
  > spill.run.log 2>&1
"$BIN/streamets_run" --sink-dump mem-out --mem-budget 0 "$plan" \
  > mem.run.log 2>&1
cmp spill-out/sink-OUT.out mem-out/sink-OUT.out
