package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"time"

	"fgp/internal/service"
)

// Load sizing for the reference host's two CPUs: fgpd gets two workers
// and the client at most two connections; all load comes from this one
// process.
const (
	serverWorkers = 2
	clientConns   = 2
	// maxOutstanding caps open-loop arrivals waiting for a connection;
	// arrivals past it are dropped and count as failures.
	maxOutstanding = 64
)

// server is an in-process fgpd on a loopback port, memory tier only.
type server struct {
	svc    *service.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan struct{}
	// primed holds the artifact addresses set-up requests already used.
	primed map[string]bool
}

func startServer() (*server, error) {
	svc, err := service.New(service.Config{Workers: serverWorkers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		svc:    svc,
		hs:     &http.Server{Handler: svc.Handler()},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: clientConns, MaxIdleConnsPerHost: clientConns}},
		served: make(chan struct{}),
		primed: map[string]bool{},
	}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return s, nil
}

// close stops the server and waits for its serve loop to return.
func (s *server) close() {
	s.client.CloseIdleConnections()
	_ = s.hs.Close()
	<-s.served
}

// exchange is one request's outcome as the client saw it.
type exchange struct {
	status   int
	body     []byte
	err      error
	connWait time.Duration // waiting for one of the client's connections
}

func (e exchange) ok() error {
	if e.err != nil {
		return e.err
	}
	if e.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", e.status, bytes.TrimSpace(e.body))
	}
	return nil
}

func (s *server) post(path string, body []byte) exchange {
	var ex exchange
	var asked atomic.Int64
	trace := &httptrace.ClientTrace{
		GetConn: func(string) { asked.Store(int64(time.Since(epoch))) },
		GotConn: func(httptrace.GotConnInfo) {
			ex.connWait = time.Since(epoch) - time.Duration(asked.Load())
		},
	}
	ctx := httptrace.WithClientTrace(context.Background(), trace)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		ex.err = err
		return ex
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		ex.err = err
		return ex
	}
	defer resp.Body.Close()
	ex.status = resp.StatusCode
	ex.body, ex.err = io.ReadAll(resp.Body)
	return ex
}

// arrival is one open-loop request's schedule, relative to the loop's
// start: when it was due, when its goroutine began sending, when it
// finished. Its latency counts from due, so a stall also charges the
// requests queued behind it.
type arrival struct {
	due, start, done time.Duration
	dropped          bool
}

func (a arrival) latency() time.Duration { return a.done - a.due }

// late is how far behind schedule the generator issued the request.
func (a arrival) late() time.Duration { return a.start - a.due }

// openLoop issues n arrivals at rate per second: arrival i is due at
// i/rate after the start whether or not earlier ones finished, and runs
// send(i) on its own goroutine. At most maxOut arrivals are outstanding;
// one due beyond that is dropped. It returns once every send has.
func openLoop(rate float64, n, maxOut int, send func(i int)) []arrival {
	arr := make([]arrival, n)
	interval := time.Duration(float64(time.Second) / rate)
	slots := make(chan struct{}, maxOut)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range arr {
		arr[i].due = time.Duration(i) * interval
		time.Sleep(time.Until(start.Add(arr[i].due)))
		select {
		case slots <- struct{}{}:
		default:
			arr[i].dropped = true
			continue
		}
		wg.Add(1)
		go func(a *arrival, i int) {
			defer wg.Done()
			defer func() { <-slots }()
			a.start = time.Since(start)
			send(i)
			a.done = time.Since(start)
		}(&arr[i], i)
	}
	wg.Wait()
	return arr
}

// closedLoop runs clients that each send their next request as soon as
// the previous one returns, until n requests are sent. send numbers
// requests in issue order and reports false when there is nothing left to
// send. It returns how many requests were sent and the time until the last
// returned. A fixed count, rather than a fixed time, keeps the work (and
// the server's cache growth) the same on a fast and a slow host.
func closedLoop(clients, n int, send func(i int) bool) (int, time.Duration) {
	var next, sent atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || !send(i) {
					return
				}
				sent.Add(1)
			}
		}()
	}
	wg.Wait()
	return int(sent.Load()), time.Since(start)
}

// exchanges collects closed-loop outcomes by request index.
type exchanges struct {
	mu sync.Mutex
	m  map[int]exchange
}

func (e *exchanges) put(i int, ex exchange) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.m == nil {
		e.m = map[int]exchange{}
	}
	e.m[i] = ex
}
