package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"falvolt/internal/campaign"
	"falvolt/internal/cluster"
)

// closeLinger is how long Close keeps answering the fleet's lease polls
// with the queue's terminal status before the server stops: two default
// worker poll intervals, so an idle worker — or one still retrying its
// registration — hears the outcome instead of finding a dead socket.
const closeLinger = 2 * cluster.DefaultPoll

// Runner serves a CLI's campaigns to a worker fleet through one
// in-process Service. It implements campaign.Runner: each Run admits
// the caller's pending trials as a served run — the caller's sink
// receives every result exactly once — and blocks until that run is
// terminal. One Runner serves any number of campaigns, in sequence or
// concurrently, to the same fleet; Close then tells the fleet the
// queue is closed.
//
// Served runs live in the catalog like submitted ones, so restart
// durability is the catalog's: with Config.StateDir set, a CLI killed
// mid-campaign and restarted on the same state dir attaches to its
// in-flight run — the journaled shard table is restored, and journaled
// results missing from the caller's checkpoint are re-delivered to its
// sink — while a state dir journaling a different experiment is
// refused.
type Runner struct {
	svc     *Service
	planner string
	tmpDir  string // state dir to delete on Close ("" when the caller owns it)
	cancel  context.CancelFunc
	done    chan error // Service.Run's outcome

	closeOnce sync.Once
	closeErr  error
}

// NewRunner starts a Service on cfg and returns once it listens. An
// empty cfg.StateDir journals to a temporary directory that Close
// deletes. planner names the shard-planning policy of runs planned
// afresh ("" or "uniform", or "balance:<timing-source>";
// campaign.PlannerByName); a run resuming from its journal keeps the
// journaled plan, so the timing source is never needed again.
func NewRunner(cfg Config, planner string) (*Runner, error) {
	if err := campaign.ValidatePlannerName(planner); err != nil {
		return nil, err
	}
	rn := &Runner{planner: planner, done: make(chan error, 1)}
	if cfg.StateDir == "" {
		dir, err := os.MkdirTemp("", "campaign-state-")
		if err != nil {
			return nil, fmt.Errorf("service: temporary state dir: %w", err)
		}
		cfg.StateDir, rn.tmpDir = dir, dir
	}
	rn.svc = New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	rn.cancel = cancel
	go func() { rn.done <- rn.svc.Run(ctx) }()
	select {
	case <-rn.svc.Ready():
		return rn, nil
	case err := <-rn.done:
		cancel()
		rn.removeTmp()
		return nil, err
	}
}

// URL returns the base URL workers connect to.
func (rn *Runner) URL() string { return rn.svc.URL() }

// Status snapshots the catalog and fleet, exactly as GET /v1/status
// reports them.
func (rn *Runner) Status() ServiceStatus {
	rn.svc.mu.Lock()
	defer rn.svc.mu.Unlock()
	return rn.svc.statusLocked()
}

// Run implements campaign.Runner. The campaign must carry its canonical
// spec in its metadata (spec.Build embeds it): workers build the
// campaign from those bytes. Run returns nil once every trial has been
// delivered, the run's failure (a trial error, a result conflict, a
// sink error) if it fails, or ctx.Err() if cancelled first — the run
// then stays journaled and detached, to resume when a caller attaches
// with the same experiment.
func (rn *Runner) Run(ctx context.Context, c campaign.Campaign, trials []campaign.Trial, sink func(campaign.Result) error) error {
	if len(trials) == 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	r, err := rn.svc.serve(c, trials, sink, rn.planner)
	if err != nil {
		return err
	}
	return rn.svc.waitServed(ctx, r)
}

// Close closes the queue and stops the service. When no run this
// Runner served is still in flight, every lease poll is answered
// StatusDone — StatusFailed if a served run failed — for closeLinger,
// so the fleet exits with the real outcome. A Runner whose run was
// interrupted stops at once: its workers keep retrying, and a
// restarted process on the same state dir picks them up again.
func (rn *Runner) Close() error {
	rn.closeOnce.Do(func() {
		if rn.svc.closeQueue() {
			time.Sleep(closeLinger)
		}
		rn.cancel()
		if err := <-rn.done; !errors.Is(err, context.Canceled) {
			rn.closeErr = err
		}
		rn.removeTmp()
	})
	return rn.closeErr
}

func (rn *Runner) removeTmp() {
	if rn.tmpDir != "" {
		os.RemoveAll(rn.tmpDir)
	}
}

// serve admits a caller's campaign as a served run covering trials, or
// attaches the caller to the in-flight served run journaled for the
// same experiment.
func (s *Service) serve(c campaign.Campaign, trials []campaign.Trial, sink func(campaign.Result) error, plannerName string) (*run, error) {
	var canonical string
	if mp, ok := c.(campaign.MetaProvider); ok {
		canonical = mp.Meta()["spec"]
	}
	if canonical == "" {
		return nil, fmt.Errorf("service: campaign %s carries no spec for workers to build from (build it with spec.Build)", c.Name())
	}
	r := &run{served: true, sink: sink}
	if _, err := r.setCampaign(c, []byte(canonical)); err != nil {
		return nil, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.queueClosed {
		return nil, fmt.Errorf("service: queue closed")
	}
	for _, id := range s.order {
		prev := s.runs[id]
		if !prev.served || !prev.detached || prev.terminal() {
			continue
		}
		if prev.fp != r.fp {
			return nil, fmt.Errorf("service: state dir %s journals spec %s (run %s), but this campaign is %s — wrong -state dir or wrong configuration",
				s.cfg.StateDir, prev.fp, prev.id, r.fp)
		}
		return prev, s.attachLocked(prev, r, trials)
	}
	planner, err := campaign.PlannerByName(plannerName)
	if err != nil {
		return nil, err
	}
	if plannerName == "" {
		plannerName = "uniform"
	}
	return r, s.admitLocked(r, trials, planner, plannerName)
}

// attachLocked resumes a detached served run for a new caller: the
// caller's campaign and sink replace the old ones, and the run's
// journal is replayed over the trials the caller still needs.
func (s *Service) attachLocked(r, caller *run, cover []campaign.Trial) error {
	hdr, results, events, err := campaign.ReadWAL(campaign.WALPath(r.dir))
	if err != nil {
		return err
	}
	r.c, r.specJSON, r.total, r.sink = caller.c, caller.specJSON, caller.total, caller.sink
	grants, err := s.restoreRunLocked(r, hdr, results, events, cover)
	if err != nil {
		r.sink = nil
		return fmt.Errorf("service: state dir %s: %w", s.cfg.StateDir, err)
	}
	s.leases.SetSeq(grants)
	r.detached = false
	s.bumpLocked()
	return nil
}

// waitServed blocks until a served run is terminal. A cancelled ctx
// detaches the caller: the run's leases are revoked and its journal
// closed, and it waits in flight for a caller to attach again.
func (s *Service) waitServed(ctx context.Context, r *run) error {
	for {
		s.mu.Lock()
		switch {
		case r.state == RunDone:
			s.mu.Unlock()
			return nil
		case r.state == RunFailed:
			s.mu.Unlock()
			return fmt.Errorf("service: run %s failed: %s", r.id, r.failure)
		case r.terminal():
			s.mu.Unlock()
			return fmt.Errorf("service: run %s was %s", r.id, r.state)
		case ctx.Err() != nil || s.closed:
			s.releaseRunLeasesLocked(r, campaign.LeaseInvalidated)
			if r.wal != nil {
				r.wal.Close()
				r.wal = nil
			}
			r.detached, r.sink = true, nil
			s.mu.Unlock()
			if err := ctx.Err(); err != nil {
				return err
			}
			return fmt.Errorf("service: stopped before run %s finished", r.id)
		}
		ch := s.watchCh
		s.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
		}
	}
}

// closeQueue makes every later lease answer terminal, unless a served
// run is still in flight (interrupted); it reports whether it did.
func (s *Service) closeQueue() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.runs {
		if r.served && !r.terminal() {
			return false
		}
	}
	s.queueClosed = true
	return true
}

// closedAnswerLocked is the lease answer once the queue has closed.
func (s *Service) closedAnswerLocked() cluster.LeaseResponse {
	for _, id := range s.order {
		if r := s.runs[id]; r.served && r.state == RunFailed {
			return cluster.LeaseResponse{Status: cluster.StatusFailed, Error: r.failure}
		}
	}
	return cluster.LeaseResponse{Status: cluster.StatusDone}
}
