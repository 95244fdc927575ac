#!/usr/bin/env bash
# Waits for a listener's bound port in a structured log and prints it.
#
#   tools/service_smoke/wait_port.sh LOG EVENT
#
# EVENT is the record that carries the port, e.g. `listening` (the
# daemon's NDJSON socket, nwdec_chaos) or `http_listening` (the daemon's
# HTTP gateway): {"ts":...,"event":"EVENT","port":NNNN}. Polls LOG every
# 0.1 s and exits 1 if no such record appears within 10 s.
set -u
if [ "$#" -ne 2 ]; then
  echo "usage: $0 LOG EVENT" >&2
  exit 2
fi
log="$1"
event="$2"
for _ in $(seq 1 100); do
  port=$(sed -n "s/.*\"event\":\"$event\",\"port\":\([0-9]*\).*/\1/p" \
    "$log" 2>/dev/null | head -n 1)
  if [ -n "$port" ]; then
    echo "$port"
    exit 0
  fi
  sleep 0.1
done
echo "$0: no \"$event\" record in $log after 10 s" >&2
exit 1
