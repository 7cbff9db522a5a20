package service

import (
	"strconv"

	"falvolt/internal/campaign"
)

// runShard keys the service-wide lease table: one table covers every
// run's shards, so one sweep policy and one lease-ID sequence span the
// whole catalog (cluster.LeaseTable is generic over exactly this).
type runShard struct {
	run   string
	shard int
}

// String keeps journaled lease IDs readable ("l7-sr2-ab12cd34/1").
func (k runShard) String() string { return k.run + "/" + strconv.Itoa(k.shard) }

// freeShard returns the index of the run's first schedulable shard —
// pending work, no active lease — or -1.
func (s *Service) freeShardLocked(r *run) int {
	for i, st := range r.shards {
		if st.done || len(st.remaining) == 0 {
			continue
		}
		if s.leases.Holder(runShard{r.id, i}) == nil {
			return i
		}
	}
	return -1
}

// activeLeasesLocked counts the run's shards currently under lease.
func (s *Service) activeLeasesLocked(r *run) int {
	n := 0
	for i := range r.shards {
		if s.leases.Holder(runShard{r.id, i}) != nil {
			n++
		}
	}
	return n
}

// pickLocked is the fair-share scheduler: among running runs with a
// free shard, the highest priority band wins outright; within the band
// the largest deficit wins, ties broken by submission order. Granting
// charges the chosen run the shard's cost (its pending trial count) and
// credits the same cost equally across every contender — including the
// chosen one — so over time each same-priority run receives an equal
// share of granted work regardless of how its shards are sized.
func (s *Service) pickLocked() (*run, int) {
	var group []*run
	shard := make(map[string]int)
	for _, id := range s.order {
		r := s.runs[id]
		if !r.schedulable() {
			continue
		}
		i := s.freeShardLocked(r)
		if i < 0 {
			continue
		}
		if len(group) > 0 {
			if r.priority > group[0].priority {
				group = group[:0]
			} else if r.priority < group[0].priority {
				continue
			}
		}
		group = append(group, r)
		shard[r.id] = i
	}
	if len(group) == 0 {
		return nil, -1
	}
	chosen := group[0]
	for _, r := range group[1:] {
		if r.deficit > chosen.deficit {
			chosen = r // ties keep the earlier submission (s.order)
		}
	}
	idx := shard[chosen.id]
	cost := float64(len(chosen.shards[idx].remaining))
	chosen.deficit -= cost
	share := cost / float64(len(group))
	for _, r := range group {
		r.deficit += share
	}
	return chosen, idx
}

// openShardsLocked counts schedulable shards (pending work, no holder)
// across every running run — the demand half of scale-up advice.
func (s *Service) openShardsLocked() int {
	n := 0
	for _, r := range s.runs {
		if !r.schedulable() {
			continue
		}
		for i, st := range r.shards {
			if !st.done && len(st.remaining) > 0 && s.leases.Holder(runShard{r.id, i}) == nil {
				n++
			}
		}
	}
	return n
}

// scaleUpLocked is the advice carried in heartbeat responses and
// /v1/status: how many ADDITIONAL workers could be leasing work right
// now. Idle live workers (no lease, not draining, seen within two lease
// TTLs) are expected to pick up open shards on their next poll, so they
// subtract from the demand.
func (s *Service) scaleUpLocked() int {
	open := s.openShardsLocked()
	if open == 0 {
		return 0
	}
	idle := 0
	cutoff := s.now().Add(-2 * s.cfg.LeaseTTL)
	for id, ws := range s.workers {
		if !ws.drain && ws.lastSeen.After(cutoff) && s.leases.Held(id) == 0 {
			idle++
		}
	}
	if idle >= open {
		return 0
	}
	return open - idle
}

// timingLocked aggregates per-key wall-clock across every run's
// recorded results — the accumulating cost model behind admission-time
// re-planning. Terminal runs recovered from disk contribute too: their
// results.jsonl was loaded at startup.
func (s *Service) timingLocked() []campaign.KeyTiming {
	var all []campaign.Result
	for _, r := range s.runs {
		all = append(all, r.results...)
	}
	return campaign.TimingByKey(all)
}
