package service

import (
	"context"
	"crypto/tls"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"

	"falvolt/internal/campaign"
	"falvolt/internal/cluster"
	"falvolt/internal/spec"
)

// accumulatedPlanner names the policy of plans derived from the
// service's accumulating cross-run timing (vs a file-backed
// "balance:<path>" source).
const accumulatedPlanner = "balance:accumulated"

// DefaultShards is the per-run shard count when Config.Shards is 0: a
// few shards per expected worker, so a small fleet load-balances
// without making shards so fine that lease traffic dominates.
const DefaultShards = 8

// DefaultLeaseTTL is the lease deadline when Config.LeaseTTL is 0.
// Workers heartbeat at a third of the TTL, so a worker death is
// detected within one TTL while three missed heartbeats are tolerated.
const DefaultLeaseTTL = 15 * time.Second

// readHeaderTimeout bounds how long a connection may take to send its
// request headers. Workers and clients send them at once; a peer that
// trickles a partial header (or opens a socket and goes quiet) is
// dropped instead of holding a connection open indefinitely.
const readHeaderTimeout = 5 * time.Second

// Config configures a campaign service.
type Config struct {
	// Addr is the listen address (":9191", "127.0.0.1:0" for tests).
	Addr string
	// StateDir roots the service's durable state: a lock file plus one
	// directory per run under <StateDir>/runs/. Required.
	StateDir string
	// Token is the bearer credential every endpoint requires. Required:
	// a multi-tenant catalog must not be world-writable.
	Token string
	// Shards is the per-run shard count (0 = DefaultShards, clamped to
	// each run's trial count).
	Shards int
	// LeaseTTL is how long a shard lease survives without a heartbeat
	// (0 = DefaultLeaseTTL).
	LeaseTTL time.Duration
	// CacheDir persists trained baselines between runs; passed to the
	// spec builder.
	CacheDir string
	// Retain caps how many terminal (done/failed/cancelled) runs the
	// catalog keeps: beyond it, the oldest terminal run directories are
	// deleted from disk and dropped from the catalog, at every terminal
	// transition and at recovery. In-flight runs are never touched.
	// 0 keeps everything.
	Retain int
	// TLSCert/TLSKey, when set (both required together), serve the
	// service over HTTPS with this PEM certificate and private key.
	// Clients with a private CA pass its bundle to NewClientTLS (or the
	// -tls-ca flag).
	TLSCert string
	TLSKey  string
	// Build constructs a campaign from an admitted spec (nil selects
	// spec.Build with CacheDir and Log; tests inject counters here).
	Build func(s *spec.Spec) (*spec.Built, error)
	// Log receives progress lines (nil silences).
	Log io.Writer

	// now overrides the clock in tests.
	now func() time.Time
}

// workerState is one registered worker's fleet entry.
type workerState struct {
	name     string
	lastSeen time.Time
	drain    bool
}

// Service is the campaign control plane: a multi-tenant run catalog
// scheduled across one worker fleet. Construct with New, then Run
// blocks until the context is cancelled; submissions, worker traffic
// and catalog queries all arrive over HTTP, and a Runner admits its
// caller's campaigns in-process.
type Service struct {
	cfg Config

	ready chan struct{}
	url   string

	mu      sync.Mutex
	runs    map[string]*run
	order   []string // run IDs in submission order
	leases  *cluster.LeaseTable[runShard]
	workers map[string]*workerState
	wseq    int
	rseq    int
	watchCh chan struct{} // closed and replaced on every catalog change
	closed  bool
	// queueClosed makes every lease answer terminal (Runner.Close).
	queueClosed bool
}

// New builds a campaign service.
func New(cfg Config) *Service {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	return &Service{
		cfg:     cfg,
		ready:   make(chan struct{}),
		runs:    make(map[string]*run),
		workers: make(map[string]*workerState),
		watchCh: make(chan struct{}),
	}
}

// Ready is closed once the service is listening; URL is valid from then
// on.
func (s *Service) Ready() <-chan struct{} { return s.ready }

// URL returns the service's base URL ("http://host:port"). Valid only
// after Ready.
func (s *Service) URL() string { return s.url }

func (s *Service) now() time.Time { return s.cfg.now() }

func (s *Service) buildFunc() func(*spec.Spec) (*spec.Built, error) {
	if s.cfg.Build != nil {
		return s.cfg.Build
	}
	return func(sp *spec.Spec) (*spec.Built, error) {
		return spec.Build(sp, spec.BuildOpts{CacheDir: s.cfg.CacheDir, Log: s.cfg.Log})
	}
}

// Run recovers the catalog from StateDir, serves until ctx is
// cancelled, then shuts down cleanly (in-flight runs stay journaled and
// resume on the next start).
func (s *Service) Run(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.cfg.Token == "" {
		return fmt.Errorf("service: a bearer token is required (the CLIs read it from $CAMPAIGN_TOKEN; workers send the same one)")
	}
	if s.cfg.StateDir == "" {
		return fmt.Errorf("service: a state directory is required (Config.StateDir)")
	}
	// A single-run coordinator journal at the top of the state dir was
	// written by a serve from before runs/ existed. Nothing here can
	// resume it; refuse rather than silently start an empty catalog
	// beside it.
	old := campaign.WALPath(s.cfg.StateDir)
	if _, err := os.Stat(old); err == nil {
		return fmt.Errorf("service: state dir %s holds %s, a journal in the older single-run layout this build cannot resume; finish that run with the build that wrote it, or start a fresh state dir", s.cfg.StateDir, old)
	}
	if err := os.MkdirAll(filepath.Join(s.cfg.StateDir, runsDirName), 0o755); err != nil {
		return fmt.Errorf("service: state dir: %w", err)
	}
	// One service per state dir: an flock a SIGKILLed process releases
	// by dying.
	lock, err := os.OpenFile(filepath.Join(s.cfg.StateDir, "lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("service: state dir lock: %w", err)
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lock.Close()
		return fmt.Errorf("service: state dir %s is already served by another coordinator (%w); stop it first", s.cfg.StateDir, err)
	}
	defer func() {
		s.mu.Lock()
		s.closed = true
		for _, r := range s.runs {
			if r.wal != nil {
				r.wal.Close()
				r.wal = nil
			}
		}
		s.bumpLocked() // wake callers blocked in Runner.Run
		s.mu.Unlock()
		lock.Close()
	}()

	s.mu.Lock()
	err = s.recoverLocked()
	recovered := len(s.runs)
	s.mu.Unlock()
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("service: listen %s: %w", s.cfg.Addr, err)
	}
	scheme := "http"
	if s.cfg.TLSCert != "" || s.cfg.TLSKey != "" {
		tc, err := cluster.TLSServerConfig(s.cfg.TLSCert, s.cfg.TLSKey)
		if err != nil {
			ln.Close()
			return err
		}
		ln = tls.NewListener(ln, tc)
		scheme = "https"
	}
	s.url = scheme + "://" + ln.Addr().String()
	close(s.ready)
	srv := &http.Server{Handler: s.mux(), ReadHeaderTimeout: readHeaderTimeout}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	s.logf("service: listening on %s (state %s, lease TTL %v, %d runs recovered)\n",
		s.url, s.cfg.StateDir, s.cfg.LeaseTTL, recovered)

	var runErr error
	select {
	case <-ctx.Done():
		runErr = ctx.Err()
	case err := <-serveErr:
		runErr = fmt.Errorf("service: server: %w", err)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	srv.Shutdown(shutdownCtx)
	return runErr
}

// recoverLocked rebuilds the catalog from <StateDir>/runs/*: terminal
// runs are listed from their status.json (results.jsonl loaded for the
// timing model), in-flight submitted runs replay their WAL
// (restoreRunLocked), and in-flight served runs wait, detached, for
// their caller to attach.
func (s *Service) recoverLocked() error {
	s.leases = cluster.NewLeaseTable[runShard](s.cfg.LeaseTTL, s.cfg.now)
	runsDir := filepath.Join(s.cfg.StateDir, runsDirName)
	entries, err := os.ReadDir(runsDir)
	if err != nil {
		return fmt.Errorf("service: read runs dir: %w", err)
	}
	type rec struct {
		st  runStatus
		dir string
	}
	var recs []rec
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(runsDir, e.Name())
		st, err := readRunStatus(dir)
		if errors.Is(err, fs.ErrNotExist) {
			// Admission journals the WAL header before status.json, so a
			// run dir without status.json is an admission killed midway
			// (its journal possibly empty or torn): no caller was ever
			// told of it, and it journaled no result. Plan afresh.
			if err := os.RemoveAll(dir); err != nil {
				return fmt.Errorf("service: remove unfinished admission %s: %w", e.Name(), err)
			}
			s.logf("service: removed run dir %s: its admission never completed\n", e.Name())
			continue
		}
		if err != nil {
			return fmt.Errorf("service: run dir %s: %w", e.Name(), err)
		}
		if st.ID != e.Name() {
			return fmt.Errorf("service: run dir %s holds status for %s", e.Name(), st.ID)
		}
		recs = append(recs, rec{st, dir})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].st.Seq < recs[j].st.Seq })
	grants := 0
	for _, rc := range recs {
		if rc.st.Seq > s.rseq {
			s.rseq = rc.st.Seq
		}
		r := &run{
			id: rc.st.ID, seq: rc.st.Seq, name: rc.st.Name, labels: rc.st.Labels,
			kind: rc.st.Kind, fp: rc.st.Fingerprint, priority: rc.st.Priority,
			dir: rc.dir, state: rc.st.State, failure: rc.st.Failure, served: rc.st.Served,
			total: rc.st.Trials, loadedDone: rc.st.Done,
		}
		switch {
		case r.terminal():
			// Listing needs only status.json; results.jsonl (if the run
			// completed) feeds the timing model and the fetch endpoint.
			if rc.st.State == RunDone && !r.served {
				if _, results, err := campaign.ReadCheckpoint(filepath.Join(rc.dir, resultsFileName)); err == nil {
					r.results = results
				}
			}
		case r.served:
			// Only the caller knows which trials its own checkpoint still
			// lacks, so a served run resumes when the caller's Runner
			// attaches with the same experiment (attachLocked).
			r.detached = true
		default:
			g, err := s.recoverSubmittedLocked(r)
			if err != nil {
				return fmt.Errorf("service: recover run %s: %w", r.id, err)
			}
			grants += g
		}
		s.runs[r.id] = r
		s.order = append(s.order, r.id)
	}
	// Fresh lease IDs must never collide with journaled ones, across
	// every run's journal.
	s.leases.SetSeq(grants)
	// Retention applies at recovery too: a service restarted over a
	// catalog that outgrew Retain while it was down prunes on startup,
	// so the cap holds across restarts, not just across transitions.
	s.pruneLocked()
	return nil
}

// recoverSubmittedLocked rebuilds an in-flight submitted run from the
// spec its journal embeds and replays the journal over its whole trial
// set, returning the journaled grant count.
func (s *Service) recoverSubmittedLocked(r *run) (int, error) {
	hdr, results, events, err := campaign.ReadWAL(campaign.WALPath(r.dir))
	if err != nil {
		return 0, err
	}
	sp, err := spec.Decode([]byte(hdr.Spec))
	if err != nil {
		return 0, fmt.Errorf("decode journaled spec: %w", err)
	}
	built, err := s.buildFunc()(sp)
	if err != nil {
		return 0, fmt.Errorf("rebuild campaign: %w", err)
	}
	trials, err := r.setCampaign(built.Campaign, []byte(hdr.Spec))
	if err != nil {
		return 0, err
	}
	r.sink = r.catalogSink
	return s.restoreRunLocked(r, hdr, results, events, trials)
}

// restoreRunLocked replays run r's journal over the trials in cover
// and returns the journal's grant count (the lease sequence to resume
// from). It verifies the journal describes r's experiment, restores the
// journaled shard table restricted to cover (trial bodies re-derived
// from r's campaign), re-delivers journaled results for covered trials
// through r's sink, and invalidates the leases that were open when the
// journal's previous writer died — their workers re-register and
// resume from local checkpoints. Recovering a submitted run covers its
// whole trial set; a caller attaching to its served run covers only
// the trials its own checkpoint still lacks.
func (s *Service) restoreRunLocked(r *run, hdr campaign.WALHeader, results []campaign.Result,
	events []campaign.WALLease, cover []campaign.Trial) (int, error) {
	if hdr.Fingerprint != r.fp {
		return 0, fmt.Errorf("WAL journals spec %s, but run %s is %s", hdr.Fingerprint, r.id, r.fp)
	}
	if hdr.Campaign != r.c.Name() || hdr.Trials != r.total {
		return 0, fmt.Errorf("WAL journals campaign %s (%d trials), want %s (%d)",
			hdr.Campaign, hdr.Trials, r.c.Name(), r.total)
	}
	full, err := r.c.Trials()
	if err != nil {
		return 0, err
	}
	byID := make(map[int]campaign.Trial, len(full))
	for _, t := range full {
		byID[t.ID] = t
	}
	covered := make(map[int]bool, len(cover))
	for _, t := range cover {
		covered[t.ID] = true
	}
	planned := make([]campaign.PlannedShard, len(hdr.Shards))
	assigned := make(map[int]string)
	for i, ws := range hdr.Shards {
		ps := campaign.PlannedShard{Label: ws.Label}
		for _, id := range ws.Trials {
			t, ok := byID[id]
			if !ok {
				return 0, fmt.Errorf("WAL shard %s names unknown trial %d", ws.Label, id)
			}
			if prev, dup := assigned[id]; dup {
				return 0, fmt.Errorf("WAL assigns trial %d to both shard %s and %s", id, prev, ws.Label)
			}
			assigned[id] = ws.Label
			if covered[id] {
				ps.Trials = append(ps.Trials, t)
			}
		}
		planned[i] = ps
	}
	for _, t := range cover {
		if _, ok := assigned[t.ID]; !ok {
			// The trial was already complete — resumed from a pre-existing
			// -o checkpoint — when this journal was created, so only that
			// checkpoint holds its result; the journal cannot supply it.
			return 0, fmt.Errorf("WAL shard table does not cover pending trial %d: it was complete before journaling began, and the checkpoint that held its result is no longer supplying it — restore the original -o checkpoint or start a fresh -state dir", t.ID)
		}
	}
	r.trials = cover
	r.recorded = make(map[int][]byte)
	r.remaining = len(cover)
	r.recovered, r.reassigned = 0, 0
	plannerName := hdr.Planner
	if plannerName == "" {
		plannerName = "uniform"
	}
	r.installPlan(planned, plannerName)
	// Replay journaled results. r.wal is still nil, so recordRunLocked
	// does not re-journal them; results outside cover (already in the
	// caller's checkpoint) take its out-of-scope drop path, and a replay
	// that completes the run finishes it right here.
	for _, res := range results {
		accepted, err := s.recordRunLocked(r, res)
		if err != nil {
			return 0, fmt.Errorf("replay result for trial %d: %w", res.TrialID, err)
		}
		if accepted {
			r.recovered++
		}
	}
	grants := campaign.GrantCount(events)
	if r.terminal() {
		return grants, nil
	}
	wal, err := campaign.OpenWALAppend(campaign.WALPath(r.dir))
	if err != nil {
		return 0, err
	}
	r.wal = wal
	open := campaign.OpenLeases(events)
	for _, l := range open {
		if err := r.wal.AppendLease(campaign.WALLease{Event: campaign.LeaseInvalidated, ID: l.ID}); err != nil {
			return 0, fmt.Errorf("journal lease invalidation: %w", err)
		}
		for _, st := range r.shards {
			if st.label == l.Shard && !st.done && len(st.remaining) > 0 {
				r.reassigned++
				break
			}
		}
	}
	s.logf("service: restored run %s: %d journaled results recovered, %d stale leases invalidated, %d/%d trials pending\n",
		r.id, r.recovered, len(open), r.remaining, len(cover))
	return grants, nil
}

// pruneLocked enforces Config.Retain: when more than Retain terminal
// runs exist, the oldest (by admission sequence) are deleted — run
// directory removed from disk, entry dropped from the catalog. Running
// runs never count against the cap and are never touched. A directory
// that fails to delete stays listed, so the operator sees it rather
// than a silently leaking orphan.
func (s *Service) pruneLocked() {
	if s.cfg.Retain <= 0 {
		return
	}
	var term []*run
	for _, id := range s.order {
		if s.runs[id].terminal() {
			term = append(term, s.runs[id])
		}
	}
	if len(term) <= s.cfg.Retain {
		return
	}
	sort.Slice(term, func(i, j int) bool { return term[i].seq < term[j].seq })
	pruned := make(map[string]bool)
	for _, r := range term[:len(term)-s.cfg.Retain] {
		if err := os.RemoveAll(r.dir); err != nil {
			s.logf("service: prune run %s: %v\n", r.id, err)
			continue
		}
		delete(s.runs, r.id)
		pruned[r.id] = true
		s.logf("service: pruned run %s (%s, %s) under -retain %d\n", r.id, r.kind, r.state, s.cfg.Retain)
	}
	if len(pruned) == 0 {
		return
	}
	keep := s.order[:0]
	for _, id := range s.order {
		if !pruned[id] {
			keep = append(keep, id)
		}
	}
	s.order = keep
}

// admit plans and journals a newly submitted run, then revisits the
// plans of idle runs with the refreshed timing model. The campaign is
// built by the caller (outside the lock: builds can be slow and must
// not stall worker heartbeats).
func (s *Service) admit(req *SubmitRequest, sp *spec.Spec, built *spec.Built) (SubmitResponse, error) {
	canonical, err := sp.Canonical()
	if err != nil {
		return SubmitResponse{}, err
	}
	r := &run{name: sp.Name, labels: sp.Labels, kind: sp.Kind, priority: req.Priority}
	trials, err := r.setCampaign(built.Campaign, canonical)
	if err != nil {
		return SubmitResponse{}, err
	}
	if len(trials) == 0 {
		return SubmitResponse{}, fmt.Errorf("service: spec %s enumerates no trials", r.fp)
	}
	r.sink = r.catalogSink

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return SubmitResponse{}, fmt.Errorf("service: shutting down")
	}
	// Admission is a planning boundary: the accumulated cross-run
	// timing (if any) flows through the Planner seam for the new run...
	timing := s.timingLocked()
	var planner campaign.Planner = campaign.UniformPlanner{}
	plannerName := "uniform"
	if len(timing) > 0 {
		planner = campaign.BalancedPlanner{Timing: timing}
		plannerName = accumulatedPlanner
	}
	if err := s.admitLocked(r, trials, planner, plannerName); err != nil {
		return SubmitResponse{}, err
	}
	return SubmitResponse{RunID: r.id, Fingerprint: r.fp, Trials: len(trials), Shards: len(r.shards)}, nil
}

// admitLocked gives r its catalog identity, plans its trials, journals
// the plan and enters it into the catalog — the one admission path of
// submitted and served runs. The WAL header lands before status.json,
// so a run dir without status.json is known to be an admission killed
// midway (recoverLocked removes it). Idle runs are re-planned against
// the refreshed timing model afterwards.
func (s *Service) admitLocked(r *run, trials []campaign.Trial, planner campaign.Planner, plannerName string) error {
	s.rseq++
	r.seq = s.rseq
	r.id = fmt.Sprintf("r%d-%s", r.seq, r.fp[:8])
	r.state = RunRunning
	r.trials = trials
	r.recorded = make(map[int][]byte)
	r.remaining = len(trials)
	r.dir = filepath.Join(s.cfg.StateDir, runsDirName, r.id)
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return fmt.Errorf("service: run dir: %w", err)
	}
	planned, err := planner.Plan(trials, campaign.ResolveShards(s.cfg.Shards, DefaultShards, len(trials)))
	if err != nil {
		return err
	}
	r.installPlan(planned, plannerName)
	wal, err := campaign.CreateWAL(campaign.WALPath(r.dir), campaign.WALHeader{
		Campaign: r.c.Name(), Trials: r.total, Fingerprint: r.fp,
		Spec: string(r.specJSON), Planner: plannerName, Shards: r.walShards(),
	})
	if err != nil {
		return err
	}
	r.wal = wal
	if err := r.writeStatus(); err != nil {
		wal.Close()
		r.wal = nil
		return err
	}
	s.runs[r.id] = r
	s.order = append(s.order, r.id)
	s.logf("service: admitted run %s (%s, %d trials, %d shards, priority %d, planner %s)\n",
		r.id, displayName(r), len(trials), len(r.shards), r.priority, plannerName)

	// ...and back into any running run that has no leases outstanding.
	s.replanIdleLocked(r.id)
	s.bumpLocked()
	return nil
}

// replanIdleLocked re-plans every running, currently-unleased run
// against the latest accumulated timing, journaling each new table as a
// WAL plan record so replay restores the plan actually in force. Only
// runs with zero active leases move: a worker mid-shard holds trial
// membership the service must not shuffle under it.
func (s *Service) replanIdleLocked(excludeID string) {
	timing := s.timingLocked()
	if len(timing) == 0 {
		return
	}
	planner := campaign.BalancedPlanner{Timing: timing}
	for _, id := range s.order {
		r := s.runs[id]
		if id == excludeID || !r.schedulable() || r.remaining == 0 {
			continue
		}
		if s.activeLeasesLocked(r) > 0 {
			continue
		}
		planned, err := planner.Plan(r.trials, len(r.shards))
		if err != nil {
			continue // keep the current plan; planning is advisory
		}
		r.installPlan(planned, accumulatedPlanner)
		if r.wal != nil {
			if err := r.wal.AppendPlan(campaign.WALPlan{Planner: accumulatedPlanner, Shards: r.walShards()}); err != nil {
				s.failRunLocked(r, fmt.Sprintf("journal re-plan: %v", err))
				continue
			}
		}
		s.logf("service: re-planned run %s across %d shards from accumulated timing (%d keys)\n",
			r.id, len(r.shards), len(timing))
	}
}

// recordRunLocked folds one streamed (or journal-replayed) result into
// a run: exactly-once delivery to the run's sink, duplicate
// verification, journaling, shard bookkeeping, completion. It reports
// whether the result was newly accepted (false for out-of-scope records
// and identical duplicates).
func (s *Service) recordRunLocked(r *run, res campaign.Result) (bool, error) {
	shard, planned := r.trialShard[res.TrialID]
	if !planned {
		// Outside the run's trial set — e.g. a restarted worker's local
		// checkpoint covering trials the caller already resumed from its
		// own. The sink must see each planned trial exactly once, so
		// out-of-scope records are dropped, not re-sunk.
		return false, nil
	}
	enc, err := json.Marshal(res)
	if err != nil {
		return false, fmt.Errorf("service: marshal result for trial %d: %w", res.TrialID, err)
	}
	if prev, ok := r.recorded[res.TrialID]; ok {
		if string(prev) != string(enc) {
			return false, fmt.Errorf("service: conflicting results for trial %d of run %s — workers disagree about the campaign", res.TrialID, r.id)
		}
		return false, nil // duplicate from a reassigned or resumed shard
	}
	if err := r.sink(res); err != nil {
		return false, err
	}
	// Journal after the sink accepted: "in the WAL" means "delivered",
	// so a replay can re-deliver journaled results a caller lost. A
	// crash between the two leaves the result in the caller's
	// checkpoint only, which resume handles (it never re-enters the
	// pending set).
	if r.wal != nil {
		if err := r.wal.AppendResult(res); err != nil {
			return false, fmt.Errorf("service: journal result for trial %d: %w", res.TrialID, err)
		}
	}
	r.recorded[res.TrialID] = enc
	st := r.shards[shard]
	delete(st.remaining, res.TrialID)
	r.remaining--
	if len(st.remaining) == 0 && !st.done {
		st.done = true
		if l := s.leases.Holder(runShard{r.id, shard}); l != nil {
			s.leases.Release(l.ID)
			r.journalLease(campaign.LeaseReleased, l.ID)
		}
		s.logf("service: run %s shard %s complete (%d/%d trials)\n", r.id, st.label, len(r.recorded), len(r.trials))
	}
	if r.remaining == 0 {
		if err := s.finishRunLocked(r); err != nil {
			return true, err
		}
	}
	return true, nil
}

// finishRunLocked completes a run: for a submitted run, write the full
// results checkpoint atomically (a served run's caller holds its
// results), then flip status.json to done and close the journal.
func (s *Service) finishRunLocked(r *run) error {
	if !r.served {
		header := campaign.NewHeader(r.c, r.total, campaign.Shard{})
		if err := campaign.WriteCheckpointAtomic(filepath.Join(r.dir, resultsFileName), header, campaign.SortedResults(r.results)); err != nil {
			s.failRunLocked(r, fmt.Sprintf("write results checkpoint: %v", err))
			return err
		}
	}
	r.state = RunDone
	s.releaseRunLeasesLocked(r, campaign.LeaseReleased)
	if r.wal != nil {
		r.wal.Close()
		r.wal = nil
	}
	if err := r.writeStatus(); err != nil {
		s.logf("service: run %s: %v\n", r.id, err)
	}
	s.logf("service: run %s complete (%d trials)\n", r.id, len(r.recorded))
	s.pruneLocked()
	s.bumpLocked()
	return nil
}

// failRunLocked aborts one run (the rest of the catalog keeps going).
func (s *Service) failRunLocked(r *run, msg string) {
	if r.terminal() {
		return
	}
	r.state = RunFailed
	r.failure = msg
	s.releaseRunLeasesLocked(r, campaign.LeaseInvalidated)
	if r.wal != nil {
		r.wal.Close()
		r.wal = nil
	}
	if err := r.writeStatus(); err != nil {
		s.logf("service: run %s: %v\n", r.id, err)
	}
	s.logf("service: run %s failed: %s\n", r.id, msg)
	s.pruneLocked()
	s.bumpLocked()
}

// cancelRunLocked cancels one run: leases are revoked (workers observe
// OK=false on their next heartbeat and abandon the shard).
func (s *Service) cancelRunLocked(r *run) {
	if r.terminal() {
		return
	}
	r.state = RunCancelled
	s.releaseRunLeasesLocked(r, campaign.LeaseInvalidated)
	if r.wal != nil {
		r.wal.Close()
		r.wal = nil
	}
	if err := r.writeStatus(); err != nil {
		s.logf("service: run %s: %v\n", r.id, err)
	}
	s.logf("service: run %s cancelled\n", r.id)
	s.pruneLocked()
	s.bumpLocked()
}

// releaseRunLeasesLocked drops every active lease on the run's shards,
// journaling each drop while the WAL is still open.
func (s *Service) releaseRunLeasesLocked(r *run, event string) {
	for i := range r.shards {
		if l := s.leases.Holder(runShard{r.id, i}); l != nil {
			s.leases.Release(l.ID)
			r.journalLease(event, l.ID)
		}
	}
}

// sweepLocked expires dead leases across every run, journaling each
// expiry into the owning run's WAL.
func (s *Service) sweepLocked() {
	for _, l := range s.leases.Sweep() {
		r := s.runs[l.Key.run]
		if r == nil {
			continue
		}
		r.journalLease(campaign.LeaseExpired, l.ID)
		if l.Key.shard < len(r.shards) {
			st := r.shards[l.Key.shard]
			if !st.done && len(st.remaining) > 0 {
				r.reassigned++
				s.logf("service: lease on run %s shard %s expired with %d trials pending; reassigning\n",
					r.id, st.label, len(st.remaining))
			}
		}
	}
}

// bumpLocked wakes every watch long-poll: the channel is closed (all
// waiters resume and re-check) and replaced.
func (s *Service) bumpLocked() {
	close(s.watchCh)
	s.watchCh = make(chan struct{})
}

// displayName renders a run's human name for logs.
func displayName(r *run) string {
	if r.name != "" {
		return fmt.Sprintf("%s %q", r.kind, r.name)
	}
	return r.kind
}

func (s *Service) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		fmt.Fprintf(s.cfg.Log, format, args...)
	}
}

// statusLocked renders the GET /v1/status snapshot: the catalog in
// submission order plus the fleet.
func (s *Service) statusLocked() ServiceStatus {
	return ServiceStatus{
		Runs:       s.runSummariesLocked(),
		Workers:    len(s.workers),
		OpenShards: s.openShardsLocked(),
		ScaleUp:    s.scaleUpLocked(),
	}
}

// runSummariesLocked renders the catalog in submission order.
func (s *Service) runSummariesLocked() []RunSummary {
	out := make([]RunSummary, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.runs[id].summary())
	}
	return out
}

// parseWatch parses the ?watch=<duration> long-poll parameter (empty =
// no watch; bare "1"/"true" = default 25s).
func parseWatch(q string) (time.Duration, bool, error) {
	switch q {
	case "":
		return 0, false, nil
	case "1", "true":
		return 25 * time.Second, true, nil
	}
	d, err := time.ParseDuration(q)
	if err != nil {
		return 0, false, fmt.Errorf("bad watch duration %q", q)
	}
	if d <= 0 || d > 5*time.Minute {
		return 0, false, fmt.Errorf("watch duration %v outside (0, 5m]", d)
	}
	return d, true, nil
}
