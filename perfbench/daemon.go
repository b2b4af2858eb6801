package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"time"

	"paragraph/internal/core"
	"paragraph/internal/serve"
)

// daemon is an in-process pgserved: a serve.Server behind a real HTTP
// server on a loopback port, driven through its public API exactly as a
// remote client would drive it.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	done   chan error
	api    string
	client *http.Client
}

// startDaemon starts a daemon over stateDir with pgserved's default worker
// count, which serve.New applies when Workers is left unset.
func startDaemon(stateDir string) (*daemon, error) {
	srv, err := serve.New(serve.Options{StateDir: stateDir})
	if err != nil {
		return nil, err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(context.Background())
		return nil, err
	}
	d := &daemon{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		done: make(chan error, 1),
		api:  "http://" + ln.Addr().String(),
		// Clients run one request at a time each, and there are never
		// more clients than CPUs, so nproc connections are enough.
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     runtime.NumCPU(),
			MaxIdleConnsPerHost: runtime.NumCPU(),
		}},
	}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// close drains the daemon's workers and stops its HTTP server, waiting for
// both.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.srv.Drain(ctx)
	d.hs.Shutdown(ctx)
	<-d.done
	d.client.CloseIdleConnections()
}

func (d *daemon) postJSON(ctx context.Context, path string, body, out any, want int) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.api+path, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, out)
}

// register registers a local trace file and returns its id.
func (d *daemon) register(ctx context.Context, path string) (string, error) {
	var ti serve.TraceInfo
	if err := d.postJSON(ctx, "/v1/traces", map[string]string{"location": path}, &ti, http.StatusCreated); err != nil {
		return "", err
	}
	return ti.ID, nil
}

// jobTimes are the client-observed phases of one job.
type jobTimes struct {
	start, submitted, running, terminal, fetched time.Time
}

// resultMagic heads pgserved's exact (gob) result format.
const resultMagic = "pgserved-result-v1\n"

// runJob submits one job, follows its event stream to the terminal event,
// and fetches the exact result.
func (d *daemon) runJob(ctx context.Context, traceID string, cfg core.Config, shards int, speculate bool) (*serve.JobResult, jobTimes, error) {
	var t jobTimes
	t.start = time.Now()
	var sub map[string]string
	if err := d.postJSON(ctx, "/v1/jobs", map[string]any{
		"trace": traceID, "config": cfg, "shards": shards, "speculate": speculate,
	}, &sub, http.StatusAccepted); err != nil {
		return nil, t, err
	}
	id := sub["id"]
	t.submitted = time.Now()
	state, err := d.follow(ctx, id, &t)
	if err != nil {
		return nil, t, fmt.Errorf("job %s events: %w", id, err)
	}
	if state != serve.StateDone {
		return nil, t, fmt.Errorf("job %s ended %q, want %q", id, state, serve.StateDone)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.api+"/v1/jobs/"+id+"/result?format=gob", nil)
	if err != nil {
		return nil, t, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, t, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return nil, t, fmt.Errorf("job %s result: status %d: %s", id, resp.StatusCode, bytes.TrimSpace(raw))
	}
	br := bufio.NewReader(resp.Body)
	magic := make([]byte, len(resultMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != resultMagic {
		return nil, t, fmt.Errorf("job %s result: bad magic %q (%v)", id, magic, err)
	}
	var res serve.JobResult
	if err := gob.NewDecoder(br).Decode(&res); err != nil {
		return nil, t, fmt.Errorf("job %s result: %w", id, err)
	}
	t.fetched = time.Now()
	return &res, t, nil
}

// follow reads a job's server-sent events until the terminal one, noting
// when the job was first seen running. It returns the terminal state.
func (d *daemon) follow(ctx context.Context, id string, t *jobTimes) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.api+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return "", err
		}
		if ev.State != serve.StateQueued && t.running.IsZero() {
			t.running = time.Now()
		}
		switch ev.State {
		case serve.StateDone, serve.StateDegraded, serve.StateFailed:
			t.terminal = time.Now()
			// Drain the rest of the stream so the connection is reused.
			io.Copy(io.Discard, resp.Body)
			return ev.State, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", errors.New("event stream ended before a terminal state")
}
