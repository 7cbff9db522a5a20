package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"falvolt/internal/campaign"
	"falvolt/internal/spec"
)

// Output checks. A faster program must not change a single simulated
// number (the repository's bit-identity contract), so a run's merged
// results are compared byte for byte: against a digest recorded for the
// workload and seed when there is one, otherwise against a re-run of
// some of its trials on a worker that has run nothing else.

// digestEntry pins the canonical result bytes of a run's first trials.
type digestEntry struct {
	// Fingerprint is the workload spec's fingerprint: a changed spec
	// makes the entry stale rather than silently wrong.
	Fingerprint string `json:"fingerprint"`
	Trials      int    `json:"trials"`
	SHA256      string `json:"sha256"`
}

//go:embed digests.json
var digestsJSON []byte

func loadDigests(data []byte) (map[string]digestEntry, error) {
	table := map[string]digestEntry{}
	if err := json.Unmarshal(data, &table); err != nil {
		return nil, fmt.Errorf("digest table: %w", err)
	}
	return table, nil
}

func digestKey(workload string, seed int64) string {
	return fmt.Sprintf("%s/%d", workload, seed)
}

// resultDigest hashes the canonical merged bytes (campaign.MarshalResults)
// of trials 0..n-1, which must all be present.
func resultDigest(results []campaign.Result, n int) (string, error) {
	rs := campaign.SortedResults(results)
	if len(rs) < n {
		return "", fmt.Errorf("digest needs %d trials, have %d", n, len(rs))
	}
	rs = rs[:n]
	if missing := campaign.Missing(rs, n); len(missing) > 0 {
		return "", fmt.Errorf("digest needs trials 0..%d, missing %v", n-1, missing)
	}
	b, err := campaign.MarshalResults(rs)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// checkDigest compares results against the recorded entry. ok is false
// when the table holds no entry for the key.
func checkDigest(table map[string]digestEntry, key, fingerprint string, results []campaign.Result) (ok bool, err error) {
	e, found := table[key]
	if !found {
		return false, nil
	}
	if e.Fingerprint != fingerprint {
		return true, fmt.Errorf("digest %s was recorded for another spec (fingerprint %s, now %s): re-record it", key, e.Fingerprint, fingerprint)
	}
	got, err := resultDigest(results, e.Trials)
	if err != nil {
		return true, err
	}
	if got != e.SHA256 {
		return true, fmt.Errorf("digest mismatch for %s over %d trials: got %s, recorded %s", key, e.Trials, got, e.SHA256)
	}
	return true, nil
}

// recheck re-runs trials on a fresh worker and compares canonical
// result bytes with the ones the run produced.
func recheck(fresh campaign.Worker, trials []campaign.Trial, results []campaign.Result) error {
	for _, r := range results {
		if r.TrialID < 0 || r.TrialID >= len(trials) {
			return fmt.Errorf("result for unplanned trial %d", r.TrialID)
		}
		again, err := fresh.RunTrial(trials[r.TrialID])
		if err != nil {
			return fmt.Errorf("re-run trial %d: %w", r.TrialID, err)
		}
		if err := sameBytes(r, again); err != nil {
			return fmt.Errorf("trial %d on a fresh worker: %w", r.TrialID, err)
		}
	}
	return nil
}

// sameBytes compares two results by canonical JSON (Wall excluded).
func sameBytes(want, got campaign.Result) error {
	a, err := json.Marshal(want)
	if err != nil {
		return err
	}
	b, err := json.Marshal(got)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("result bytes differ:\n  want %s\n  got  %s", a, b)
	}
	return nil
}

// checkOutputs verifies a run's results: the recorded digest when the
// seed has one, otherwise a re-run of the last trials (the ones that ran
// after the longest worker history) on a worker built for the check.
func checkOutputs(w workload, s *spec.Spec, seed int64, results []campaign.Result, log io.Writer) error {
	table, err := loadDigests(digestsJSON)
	if err != nil {
		return err
	}
	fp, err := s.Fingerprint()
	if err != nil {
		return err
	}
	key := digestKey(w.name, seed)
	found, err := checkDigest(table, key, fp, results)
	if err != nil {
		return err
	}
	if found {
		fmt.Fprintf(log, "check: digest %s matches\n", key)
		return nil
	}
	fresh, err := setUp(s)
	if err != nil {
		return err
	}
	rs := campaign.SortedResults(results)
	sample := rs[max(0, len(rs)-w.recheck):]
	if err := recheck(fresh.worker, fresh.trials, sample); err != nil {
		return err
	}
	fmt.Fprintf(log, "check: no digest for %s; %d trials re-run on a fresh worker match\n", key, len(sample))
	return nil
}

// record runs a workload's first digestTrials trials for seed and
// stores their digest in the table file at path.
func record(w workload, seed int64, path string, log io.Writer) error {
	s := w.spec(seed)
	su, err := setUp(s)
	if err != nil {
		return err
	}
	p := runPhase(su, 0, w.digestTrials)
	if p.failure != nil {
		return p.failure
	}
	sum, err := resultDigest(p.results, w.digestTrials)
	if err != nil {
		return err
	}
	fp, err := s.Fingerprint()
	if err != nil {
		return err
	}
	table := map[string]digestEntry{}
	if data, err := os.ReadFile(path); err == nil {
		if table, err = loadDigests(data); err != nil {
			return err
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	key := digestKey(w.name, seed)
	table[key] = digestEntry{Fingerprint: fp, Trials: w.digestTrials, SHA256: sum}
	out, err := json.MarshalIndent(table, "", "  ") // map keys sorted
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(log, "recorded %s = %s\n", key, sum)
	return nil
}
