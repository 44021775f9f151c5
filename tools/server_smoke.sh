#!/usr/bin/env bash
# Server smoke: boot a durable sopr-server (sync WAL mode) over a scratch data
# directory, run a scripted multi-client conversation against it,
# restart the server to prove the conversation was durable, and diff
# the combined client transcript against the checked-in golden.
#
# The transcript is byte-deterministic: clients run one after another
# (no racing commits), versions are counted from a fresh directory, and
# the variable parts (port, data directory, server log) never reach it.
#
# Usage: tools/server_smoke.sh [--update]
#   --update  rewrite tools/server_smoke.golden from this run
set -euo pipefail

cd "$(dirname "$0")/.."
server=${SOPR_SERVER:-_build/default/bin/sopr_server.exe}
golden=tools/server_smoke.golden

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

# Session 1 installs the schema and a rule, and commits a transaction
# that fires it.
client alice <<'EOF'
create table fleet (id int, mi int)
create table log (mi int)
create rule odometer when updated fleet.mi then insert into log (select mi from new updated fleet.mi)
insert into fleet values (1, 0); insert into fleet values (2, 0)
begin; update fleet set mi = mi + 120 where id = 1; commit
select id, mi from fleet
select mi from log
\q
EOF

# Session 2 sees session 1's committed state and commits its own
# transaction; the rule fires again.
client bob <<'EOF'
select mi from fleet where id = 1
begin; update fleet set mi = mi + 80 where id = 2; commit
select mi from log
\version
\q
EOF

# Restart: everything above came back from the WAL.
stop_server
start_server

client carol <<'EOF'
select id, mi from fleet
select mi from log
\version
\q
EOF

stop_server

if [ "${1:-}" = "--update" ]; then
  cp "$dir/transcript" "$golden"
  echo "updated $golden"
  exit 0
fi

if ! diff -u "$golden" "$dir/transcript"; then
  echo "server smoke transcript diverged from $golden" >&2
  exit 1
fi
echo "server smoke: transcript matches $golden"
