// Package cluster holds the mechanics of running fault-sweep campaigns
// across machines: the wire protocol workers speak, the lease table
// with heartbeat-renewed deadlines, the HTTP and TLS transport helpers,
// and the worker daemon. It holds no scheduling policy and no control
// plane of its own — internal/service is the one control plane, both
// for the long-lived multi-run catalog (`campaign service`) and for the
// campaigns a CLI serves in-process through service.Runner (`campaign
// serve`, `yield -coordinator`, `experiments -coordinator`).
//
// Determinism guarantee: distribution never changes results. Every
// trial is seed-addressed — its result is a pure function of the trial,
// not of which worker ran it, when, or after how many lease
// reassignments — and the control plane delivers each trial's result to
// its run's sink exactly once, with reductions consuming them in
// ascending trial-ID order. A campaign distributed across any number of
// workers (including workers that die mid-shard and have their leases
// reassigned) therefore produces figure and report JSON byte-identical
// to a single-process run; this package's tests assert exactly that,
// driving Worker against service.Runner.
//
// Fault tolerance: leases carry heartbeat-renewed deadlines. A worker
// that misses its deadline (crash, network partition) loses the lease,
// and the shard's remaining trials — those whose results never arrived
// — are reassigned to the next idle worker. Workers keep a local JSONL
// checkpoint per (run, shard), so a restarted worker re-registers,
// resumes its shard from disk, and streams the already-completed
// records instead of re-running them. A worker whose ID the control
// plane no longer knows (it restarted) re-registers on its own.
//
// Safety: workers carry no campaign configuration of their own. Every
// lease grant ships its run's canonical experiment spec
// (internal/spec); the worker builds the campaign from exactly those
// bytes via the spec registry, once per spec fingerprint, so
// `campaign work -coordinator <url>` is all it takes to join a fleet
// and a misconfigured worker is unrepresentable. Registration rejects
// wire-protocol version mismatches up front.
//
// When changing a behavior, place it by this test: a mechanism every
// fleet needs whatever its policy (a message, a lease deadline, the
// worker's resume rule) belongs here; anything that decides what runs,
// where, for whom or how durably belongs in internal/service.
package cluster
