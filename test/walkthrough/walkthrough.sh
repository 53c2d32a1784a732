#!/usr/bin/env bash
# Cram-style transcript of the README walkthrough.  Runs the xmlacctl
# pipeline (generate -> annotate -> request -> update -> explain) in a
# scratch directory and prints each command with its output, so the
# promoted walkthrough.expected keeps the README honest.
set -u

xmlacctl=$(realpath "$1")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

# Strip wall-clock readings (Timing.pp_seconds output) so the
# transcript stays deterministic.
detime() {
  sed -E 's/[0-9]+(\.[0-9]+)?(e[-+]?[0-9]+)? ?(ns|us|ms|s)\b/<time>/g'
}

show() {
  echo "\$ xmlacctl $*"
  "$xmlacctl" "$@" 2>&1 | detime
  status=${PIPESTATUS[0]}
  if [ "$status" -ne 0 ]; then echo "[exit $status]"; fi
}

cat > auction.policy <<'EOF'
# Auction-site policy, two roles: visitors see people by name only —
# anyone with a credit card on file is hidden from them entirely —
# while auditors (who inherit the visitor rules) also see the open
# auctions.
role visitor
role auditor inherits visitor
default deny
conflict deny
allow //person
allow //person/name
deny  @visitor //person[creditcard]
allow @auditor //open_auction
EOF
echo "\$ cat auction.policy"
cat auction.policy

show roles auction.policy
show generate -f 0.005 -o site.xml
show annotate site.xml auction.policy -o annotated.xml
show query annotated.xml auction.policy "//person/name"
show query annotated.xml auction.policy --subject visitor "//open_auction"
show query annotated.xml auction.policy --subject auditor "//open_auction"
show query annotated.xml auction.policy "//person"
# The rewrite lane: the same requests answered on the never-annotated
# site.xml — the auto lane notices the missing signs and rewrites, and
# forcing --lane rewrite skips sign reads even where signs exist.
show query site.xml auction.policy "//person/name"
show query site.xml auction.policy --lane rewrite --subject auditor "//open_auction"
show update annotated.xml auction.policy --dtd xmark "//person/creditcard" -o updated.xml
show query updated.xml auction.policy "//person"
show explain auction.policy --dtd xmark --doc site.xml \
  --request "//person/name" --request "//open_auction" \
  --subject visitor --subject auditor
show health auction.policy --dtd xmark --doc site.xml \
  --requests 24 --fault-rate 0.25 --seed 7 --followers 2
# Concurrent front end, pinned to --domains 1 so the scheduler is the
# deterministic sequential fallback and the transcript stays stable;
# the reader lines are identical at any domain count because every
# session answers from the epoch it pinned at open.
show serve auction.policy --dtd xmark --doc site.xml \
  --readers 4 --requests 6 --churn 3 --domains 1
# Replication: a leader ships its committed epochs to two followers
# over a seeded chaos transport (frames dropped, duplicated, reordered
# and torn at --fault-rate); followers detect the gaps, request
# re-ship, and converge to the leader's exact state.  --kill then
# kills the leader, promotes the least-lagged follower after digest
# verification, and commits one write through the new leader.
show replicate auction.policy --dtd xmark --doc site.xml \
  --churn 3 --fault-rate 0.2 --seed 7 --kill
# A missing input file is a one-line error with exit status 1.
show update annotated.xml auction.policy --dtd missing.dtd "//person/creditcard"
