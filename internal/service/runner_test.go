package service

import (
	"bytes"
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"falvolt/internal/campaign"
	"falvolt/internal/spec"
)

// TestRunnerServesSequentialCampaigns: one Runner serves two different
// campaigns in sequence to one worker, the way `experiments -fig 5a,5b
// -coordinator` does. Both merges are byte-identical to single-process
// runs, and the worker keeps polling between and after the campaigns —
// it exits 0 only once Close closes the queue.
func TestRunnerServesSequentialCampaigns(t *testing.T) {
	rn, err := NewRunner(Config{Addr: "127.0.0.1:0", Token: testToken, Shards: 3, LeaseTTL: 2 * time.Second}, "")
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var executed atomic.Int64
	worker := startWorker(t, rn.URL(), "fleet", t.TempDir(), &executed)

	total := 0
	for i, specJSON := range [][]byte{selftestSpec(13, 0, "first"), selftestSpec(21, 1, "second")} {
		_, want := singleProcessResults(t, specJSON)
		sp, err := spec.Decode(specJSON)
		if err != nil {
			t.Fatal(err)
		}
		built, err := spec.Build(sp, spec.BuildOpts{})
		if err != nil {
			t.Fatal(err)
		}
		rr, err := campaign.Run(built.Campaign, campaign.Options{Context: ctx, Runner: rn})
		if err != nil {
			t.Fatalf("campaign %d: %v", i+1, err)
		}
		got, _ := campaign.MarshalResults(rr.Results)
		wantJSON, _ := campaign.MarshalResults(want)
		if !bytes.Equal(got, wantJSON) {
			t.Fatalf("campaign %d: served results differ from the single-process run", i+1)
		}
		total += len(want)
		select {
		case err := <-worker:
			t.Fatalf("worker exited after campaign %d, before Close: %v", i+1, err)
		case <-time.After(100 * time.Millisecond):
		}
	}
	if err := rn.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-worker:
		if err != nil {
			t.Fatalf("worker exited with %v after Close, want 0", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker still running after Close")
	}
	if executed.Load() != int64(total) {
		t.Fatalf("worker executed %d trials, want exactly %d", executed.Load(), total)
	}
}

// TestPreMergeStateDirRefused: a state dir written by a serve from
// before the runs/ layout (a top-level wal.jsonl) cannot be resumed by
// this build; starting on it must fail naming the file, not silently
// open an empty catalog beside it.
func TestPreMergeStateDirRefused(t *testing.T) {
	state := t.TempDir()
	old := campaign.WALPath(state)
	wal, err := campaign.CreateWAL(old, campaign.WALHeader{
		Campaign: "selftest", Trials: 4, Fingerprint: "0123456789abcdef",
		Shards: []campaign.WALShard{{Label: "0/1", Trials: []int{0, 1, 2, 3}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	wal.Close()

	err = New(Config{Addr: "127.0.0.1:0", Token: testToken, StateDir: state}).Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), old) {
		t.Fatalf("service on a pre-merge state dir: err = %v, want a refusal naming %s", err, old)
	}
	if _, err := NewRunner(Config{Addr: "127.0.0.1:0", Token: testToken, StateDir: state}, ""); err == nil || !strings.Contains(err.Error(), old) {
		t.Fatalf("runner on a pre-merge state dir: err = %v, want a refusal naming %s", err, old)
	}
	if _, err := os.Stat(filepath.Join(state, runsDirName)); !os.IsNotExist(err) {
		t.Fatalf("refused start still created %s (%v)", runsDirName, err)
	}
}

// TestPartialHeaderConnectionClosed: a client that sends part of a
// request header and goes quiet is disconnected once readHeaderTimeout
// passes, instead of holding the connection open indefinitely.
func TestPartialHeaderConnectionClosed(t *testing.T) {
	t.Parallel()
	svc, stop := startService(t, Config{StateDir: t.TempDir()})
	defer stop()
	conn, err := net.Dial("tcp", strings.TrimPrefix(svc.URL(), "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("POST /v1/lease HTTP/1.1\r\nHost: svc\r\nAuthoriz")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second))
	buf := make([]byte, 512)
	for {
		_, err = conn.Read(buf)
		if err != nil {
			break
		}
	}
	elapsed := time.Since(start)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open %v after a partial header (read header timeout %v)", elapsed, readHeaderTimeout)
	}
	if elapsed < readHeaderTimeout-250*time.Millisecond {
		t.Fatalf("connection closed after %v, before the %v read header timeout: %v", elapsed, readHeaderTimeout, err)
	}
}

// TestServedRunListedAfterRestart: a served run keeps no results file
// (its caller holds the results), so a service restarted on its state
// dir lists it with the result count its status.json recorded.
func TestServedRunListedAfterRestart(t *testing.T) {
	state := t.TempDir()
	rn, err := NewRunner(Config{Addr: "127.0.0.1:0", Token: testToken, StateDir: state}, "")
	if err != nil {
		t.Fatal(err)
	}
	var executed atomic.Int64
	worker := startWorker(t, rn.URL(), "w", t.TempDir(), &executed)
	sp, err := spec.Decode(selftestSpec(9, 0, ""))
	if err != nil {
		t.Fatal(err)
	}
	built, err := spec.Build(sp, spec.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := campaign.Run(built.Campaign, campaign.Options{Context: ctx, Runner: rn}); err != nil {
		t.Fatal(err)
	}
	if err := rn.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-worker; err != nil {
		t.Fatal(err)
	}

	svc, stop := startService(t, Config{StateDir: state})
	defer stop()
	runs, err := NewClient(svc.URL(), testToken).List()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs.Runs) != 1 || runs.Runs[0].State != RunDone || runs.Runs[0].Done != 9 {
		t.Fatalf("restarted catalog lists %+v, want one done run with 9 results", runs.Runs)
	}
}
