package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"falvolt/internal/cluster"
)

// Client talks to a campaign service's catalog endpoints (the worker
// protocol side lives in cluster.Worker). Used by the `campaign
// submit` / `campaign runs` / `campaign drain` subcommands and tests.
type Client struct {
	base  string
	token string
	hc    *http.Client
}

// NewClient builds a catalog client for one service.
func NewClient(base, token string) *Client {
	return &Client{
		base:  strings.TrimRight(base, "/"),
		token: token,
		// Generous timeout: watch long-polls hold the connection open
		// for up to 25s per round.
		hc: &http.Client{Timeout: 60 * time.Second},
	}
}

// NewClientTLS builds a catalog client that verifies an https:// service
// against the PEM CA bundle at caFile (empty = NewClient's behavior:
// system roots).
func NewClientTLS(base, token, caFile string) (*Client, error) {
	cl := NewClient(base, token)
	hc, err := cluster.HTTPClient(caFile, 60*time.Second)
	if err != nil {
		return nil, err
	}
	cl.hc = hc
	return cl, nil
}

// do sends one request and decodes the JSON response into out (skipped
// when out is nil).
func (c *Client) do(method, path string, in, out any) error {
	data, err := c.raw(method, path, in)
	if err != nil || out == nil {
		return err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("service: decode %s response: %w", path, err)
	}
	return nil
}

// raw sends one request (in JSON-encoded when non-nil) and returns the
// response body. Non-2xx responses surface the server's message.
func (c *Client) raw(method, path string, in any) ([]byte, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return nil, fmt.Errorf("service: marshal %s request: %w", path, err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return nil, fmt.Errorf("service: %s: %w", path, err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("Authorization", "Bearer "+c.token)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("service: %s: %w", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("service: read %s response: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		json.Unmarshal(data, &e)
		if e.Error != "" {
			return nil, fmt.Errorf("service: %s: %s (HTTP %d)", path, e.Error, resp.StatusCode)
		}
		return nil, fmt.Errorf("service: %s: HTTP %d", path, resp.StatusCode)
	}
	return data, nil
}

// Submit enqueues a spec and returns the admitted run.
func (c *Client) Submit(specJSON []byte, priority int) (SubmitResponse, error) {
	var resp SubmitResponse
	err := c.do("POST", "/v1/runs", SubmitRequest{Spec: specJSON, Priority: priority}, &resp)
	return resp, err
}

// List returns every catalog entry in submission order.
func (c *Client) List() (ListResponse, error) {
	var resp ListResponse
	err := c.do("GET", "/v1/runs", nil, &resp)
	return resp, err
}

// Get returns one run's summary.
func (c *Client) Get(id string) (RunSummary, error) {
	var resp RunSummary
	err := c.do("GET", "/v1/runs/"+url.PathEscape(id), nil, &resp)
	return resp, err
}

// Watch long-polls until the run reaches a terminal state.
func (c *Client) Watch(id string) (RunSummary, error) {
	for {
		var resp RunSummary
		if err := c.do("GET", "/v1/runs/"+url.PathEscape(id)+"?watch=25s", nil, &resp); err != nil {
			return RunSummary{}, err
		}
		if resp.State != RunRunning {
			return resp, nil
		}
	}
}

// Results fetches a completed run's checkpoint JSONL (header plus
// results sorted by trial ID) — mergeable like any shard file.
func (c *Client) Results(id string) ([]byte, error) {
	return c.raw("GET", "/v1/runs/"+url.PathEscape(id)+"/results", nil)
}

// Cancel cancels a run (idempotent) and returns its summary.
func (c *Client) Cancel(id string) (RunSummary, error) {
	var resp RunSummary
	err := c.do("POST", "/v1/runs/"+url.PathEscape(id)+"/cancel", struct{}{}, &resp)
	return resp, err
}

// Drain marks workers (by ID or display name) for graceful drain.
func (c *Client) Drain(worker string) (DrainResponse, error) {
	var resp DrainResponse
	err := c.do("POST", "/v1/drain", DrainRequest{Worker: worker}, &resp)
	return resp, err
}

// Status returns the service snapshot (catalog, fleet, scale advice).
func (c *Client) Status() (ServiceStatus, error) {
	var resp ServiceStatus
	err := c.do("GET", "/v1/status", nil, &resp)
	return resp, err
}
