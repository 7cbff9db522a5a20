// Package service is the one control plane of distributed campaigns: a
// run catalog that multiplexes any number of experiment runs over a
// single shared worker fleet. It serves both ways a campaign reaches a
// fleet:
//
//   - submitted runs — `campaign service` is a long-lived Service whose
//     catalog accepts specs over HTTP (submit/list/get/watch/cancel);
//     the catalog keeps each run's results and serves them when done;
//   - served runs — a CLI (`campaign serve`, `yield -coordinator`,
//     `experiments -coordinator`) starts a Runner, a Service inside its
//     own process that implements campaign.Runner: each Run admits the
//     caller's pending trials as a run whose results go to the caller's
//     sink, and blocks until the run is over. One Runner serves every
//     campaign of the CLI to the same fleet; Close tells the fleet the
//     queue is closed.
//
// The split with internal/cluster: cluster owns the mechanics every
// fleet needs whatever its policy — the wire protocol, the generic
// lease table, the HTTP/TLS helpers and the worker daemon. This
// package owns the policy: the catalog, durability, scheduling,
// planning, the autoscaling hooks and auth.
//
// # Run catalog and durability
//
// Every run is "r<seq>-<fingerprint[:8]>" with its own directory
// <StateDir>/runs/<runID>/ holding wal.jsonl (the campaign.WAL: spec,
// shard table, lease lifecycle, every accepted result — written first
// at admission, so a directory without status.json is an admission
// killed midway and is removed on restart), status.json (catalog
// metadata and state, rewritten atomically on every transition) and,
// for a completed submitted run, results.jsonl (a complete checkpoint
// that `campaign merge` consumes and that merges byte-identically to a
// single-process run; a served run's results live in its caller's
// checkpoint instead).
//
// Every result goes to its run's sink first and is journaled after, so
// "in the WAL" means "delivered". One restore path replays a journal
// over the trials it must cover: a restarted service replays each
// in-flight submitted run over all its trials, while a served run
// waits for its caller — a restarted CLI on the same -state — to attach
// with the same experiment, and is replayed over the trials the
// caller's checkpoint still lacks, re-delivering journaled results the
// caller lost. A state dir whose in-flight served run is a different
// experiment, a shard table that no longer covers a pending trial, and
// a second process on the same state dir are refused. Open leases are
// invalidated on restore; workers re-register and resume from their
// local per-(run, shard) checkpoints, so completed trials never re-run.
//
// # Scheduling
//
// One cluster.LeaseTable keyed by (run, shard) covers the whole
// catalog. A lease request picks among runs that are running and have a
// free shard: the highest submission priority wins outright, and within
// a priority band a deficit counter — charged to the chosen run,
// credited equally to every contender — keeps long-term shard grants
// fair however uneven the shard sizes are.
//
// Plans are made at admission: a served run is planned by its Runner's
// policy (uniform, or balanced from a -balance timing source), a
// submitted run from the wall-clock timing accumulated across the
// catalog's results (campaign.TimingByKey through the campaign.Planner
// seam). Each admission also re-plans any running run that currently
// has no leases outstanding against that timing; each re-plan is
// journaled as a WAL plan record so replay restores the table actually
// in force.
//
// # Autoscaling hooks
//
// Heartbeat responses carry scale-up advice (schedulable shards minus
// idle live workers) and graceful-drain directives; lease responses
// carry drain for idle workers. cluster.Worker honors both: a drained
// worker finishes its current shard, then exits instead of taking
// another lease. The advice is also exposed on GET /v1/status for
// external autoscalers.
//
// # Auth
//
// Every endpoint — worker protocol and catalog alike — requires the
// service's bearer token ("Authorization: Bearer <token>"), compared in
// constant time. A service refuses to start without one; the CLIs read
// it from $CAMPAIGN_TOKEN.
package service
