package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"
)

// server serves a handler on a loopback socket, as a deployment would.
type server struct {
	srv  *http.Server
	base string
	done chan error
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the server and waits for its accept loop to exit.
func (s *server) close() error {
	err := s.srv.Shutdown(context.Background())
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// client is one HTTP/1.1 connection's worth of load: requests are sent
// one at a time, and every byte written to the socket is counted.
type client struct {
	hc   *http.Client
	base string
	sent atomic.Int64
}

func newClient(base string) *client {
	c := &client{base: base}
	dialer := &net.Dialer{}
	c.hc = &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return &countingConn{Conn: conn, n: &c.sent}, nil
		},
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
	return c
}

// do sends one request tagged with a batch id and returns the status and
// the whole response body.
func (c *client) do(method, path string, id int64, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set(batchHeader, strconv.FormatInt(id, 10))
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// mustDo is do for set-up requests, which must succeed.
func (c *client) mustDo(method, path string, body []byte, want int) error {
	status, out, err := c.do(method, path, -1, body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(out))
	}
	return nil
}

func (c *client) close() { c.hc.CloseIdleConnections() }

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// query is one open-loop request: when it was due, when the generator
// could have sent it (the previous response had arrived), when it was
// sent, and when its answer arrived.
type query struct {
	id                    int64
	target                int // workload-defined (tracker index)
	due, ready, sent, end time.Time
	status                int
	body                  []byte
	err                   error
	after                 int // batches acked when the query was sent
}

// latencyMS is the query's latency timed from when it was due, so a
// stall also charges the queries that queued behind it.
func (q *query) latencyMS() float64 { return float64(q.end.Sub(q.due).Nanoseconds()) / 1e6 }

// lateMS is how late the generator itself was: the delay between the
// moment it was free to send and the moment it did. Waiting on the
// previous response is the system's delay and is not counted here.
func (q *query) lateMS() float64 { return float64(q.sent.Sub(q.ready).Nanoseconds()) / 1e6 }

// openLoop issues queries on a fixed schedule until stop closes; issue
// sends query i and fills its status, body and error.
func openLoop(rate float64, stop <-chan struct{}, acked func() int, issue func(q *query)) []*query {
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	var out []*query
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-stop:
				return out
			case <-time.After(wait):
			}
		} else {
			select {
			case <-stop:
				return out
			default:
			}
		}
		q := &query{id: int64(i), due: due, ready: due}
		now := time.Now()
		if len(out) > 0 && out[len(out)-1].end.After(due) {
			q.ready = out[len(out)-1].end
		}
		q.sent = now
		q.after = acked()
		issue(q)
		q.end = time.Now()
		out = append(out, q)
	}
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
