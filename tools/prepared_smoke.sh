#!/usr/bin/env bash
# Prepared-statement smoke against a live server: boot sopr-server over
# a scratch data directory, drive PREPARE/EXECUTE/DEALLOCATE through
# two client sessions, and diff the combined transcript against the
# checked-in golden.
#
# What it pins down, beyond the shell-level prepared_smoke golden:
#   - prepared statements are a per-session namespace (a second session
#     cannot EXECUTE the first session's name);
#   - EXECUTE works inside an explicit transaction and via autocommit;
#   - DDL committed mid-session invalidates the cached plan, and the
#     next EXECUTE recompiles against the new catalog rather than
#     running a stale plan;
#   - DEALLOCATE + re-PREPARE runs the new body, not the old plan.
#
# The transcript is byte-deterministic: clients run one after another,
# versions are counted from a fresh directory, and the variable parts
# (port, data directory, server log) never reach it.
#
# Usage: tools/prepared_smoke.sh [--update]
#   --update  rewrite tools/prepared_smoke.golden from this run
set -euo pipefail

cd "$(dirname "$0")/.."
server=${SOPR_SERVER:-_build/default/bin/sopr_server.exe}
golden=tools/prepared_smoke.golden

if [ ! -x "$server" ]; then
  echo "server binary not found: $server (dune build bin/sopr_server.exe)" >&2
  exit 1
fi

dir=$(mktemp -d)
srv_pid=""
trap '[ -n "$srv_pid" ] && kill "$srv_pid" 2>/dev/null; rm -rf "$dir"' EXIT

start_server() {
  : >"$dir/server.log"
  "$server" serve --port 0 --data-dir "$dir/data" \
    >"$dir/server.log" 2>&1 &
  srv_pid=$!
  port=""
  for _ in $(seq 1 100); do
    port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' \
      "$dir/server.log")
    [ -n "$port" ] && return 0
    sleep 0.1
  done
  echo "server did not come up; log follows" >&2
  cat "$dir/server.log" >&2
  exit 1
}

stop_server() {
  kill -TERM "$srv_pid"
  wait "$srv_pid" 2>/dev/null || true
  srv_pid=""
}

client() {
  echo "== $1 ==" >>"$dir/transcript"
  "$server" client --port "$port" >>"$dir/transcript"
}

start_server

# Session 1: prepare a reader and a writer, run both inside and outside
# an explicit transaction, then change the catalog under the cached
# plan — the EXECUTE after the index DDL must recompile, not reuse.
client alice <<'EOF'
create table acct (id int, bal int)
insert into acct values (1, 100); insert into acct values (2, 200)
prepare bal as select bal from acct where id = ?
prepare credit as update acct set bal = bal + ? where id = ?
execute bal (1)
execute credit (25, 1)
execute bal (1)
begin; execute credit (1000, 2); rollback
execute bal (2)
create index acct_id on acct (id)
execute bal (2)
execute bal (1, 2)
deallocate bal
prepare bal as select bal + 1000 from acct where id = ?
execute bal (1)
\q
EOF

# Session 2: fresh namespace — alice's names are gone; its own PREPARE
# sees alice's committed writes.
client bob <<'EOF'
execute bal (1)
prepare total as select sum(bal) from acct
execute total
deallocate all
execute total
\q
EOF

stop_server

if [ "${1:-}" = "--update" ]; then
  cp "$dir/transcript" "$golden"
  echo "updated $golden"
  exit 0
fi

if ! diff -u "$golden" "$dir/transcript"; then
  echo "prepared smoke transcript diverged from $golden" >&2
  exit 1
fi
echo "prepared smoke: transcript matches $golden"
