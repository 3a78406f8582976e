package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"libshalom"
	"libshalom/internal/attrib"
	"libshalom/internal/router"
	"libshalom/internal/server"
	"libshalom/internal/telemetry"
)

// node is one in-process shalom-serve backend on a loopback listener,
// built the way cmd/shalom-serve builds it by default: a telemetry context
// with the automatic thread policy, the attribution engine, and the
// default serving policy.
type node struct {
	lib     *libshalom.Context
	created time.Time
	eng     *attrib.Engine
	srv     *server.Server
	http    *http.Server
	done    chan struct{}
	url     string
}

// fleet is the serving topology a served workload drives: one backend, or
// a router in front of several.
type fleet struct {
	nodes  []*node
	rt     *router.Router
	rtHTTP *http.Server
	rtDone chan struct{}
	target string
	stop   context.CancelFunc
	client *http.Client
}

// serve runs h on a fresh loopback listener.
func serve(h http.Handler) (*http.Server, chan struct{}, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, "", err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed after Close
	}()
	return hs, done, "http://" + ln.Addr().String(), nil
}

// startFleet builds backends servers (behind a router when routed) and a
// client for clients concurrent callers. With a tracer every tier's
// handler is wrapped in spans and contexts keep ring phase spans.
func startFleet(backends int, routed bool, clients int, tr *tracer, ring int) (*fleet, error) {
	lifecycle, stop := context.WithCancel(context.Background())
	f := &fleet{stop: stop}
	for i := 0; i < backends; i++ {
		opts := []libshalom.Option{libshalom.WithTelemetry()}
		if tr != nil {
			opts = []libshalom.Option{libshalom.WithTelemetryOptions(libshalom.TelemetryOptions{TraceEvents: ring})}
		}
		n := &node{created: time.Now()}
		n.lib = libshalom.New(opts...)
		n.eng = attrib.New(attrib.Config{Recorder: n.lib.TelemetryRecorder(), Platform: n.lib.Platform()})
		n.eng.Start()
		n.srv = server.New(n.lib, server.Config{BaseContext: lifecycle, Attrib: n.eng})
		var h http.Handler = n.srv
		if tr != nil {
			h = tr.wrap(h, "server.handler", int32(backendPid+i))
		}
		var err error
		if n.http, n.done, n.url, err = serve(h); err != nil {
			n.eng.Close()
			n.lib.Close()
			f.close()
			return nil, fmt.Errorf("starting backend %d: %w", i, err)
		}
		f.nodes = append(f.nodes, n)
		f.target = n.url
	}
	if routed {
		urls := make([]string, len(f.nodes))
		for i, n := range f.nodes {
			urls[i] = n.url
		}
		rt, err := router.New(router.Config{
			Backends:    urls,
			BaseContext: lifecycle,
			Telemetry:   telemetry.New(telemetry.Options{}),
		})
		if err != nil {
			f.close()
			return nil, err
		}
		rt.Start()
		f.rt = rt
		var h http.Handler = rt
		if tr != nil {
			h = tr.wrap(h, "router.handler", backendPid+int32(backends))
		}
		if f.rtHTTP, f.rtDone, f.target, err = serve(h); err != nil {
			f.close()
			return nil, fmt.Errorf("starting router: %w", err)
		}
	}
	f.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients + 1, DisableCompression: true}}
	return f, nil
}

// close drains every tier and waits for its goroutines to end. Once a
// tier has drained no request is in flight, so its listener and
// connections are closed outright: Shutdown would wait up to five seconds
// on a connection a transport dialed but never used.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	if f.rtHTTP != nil {
		_ = f.rt.Drain(ctx)
		_ = f.rtHTTP.Close()
		<-f.rtDone
	}
	if f.rt != nil {
		f.rt.Close()
	}
	for _, n := range f.nodes {
		_ = n.srv.Drain(ctx)
		_ = n.http.Close()
		<-n.done
		n.eng.Close()
		n.lib.Close()
	}
	f.stop()
}

// reply is what one client learned from one request beyond its latency.
type reply struct {
	queueUS  int64
	batch    int
	attempts int
}

// send sends one op and checks the answer. It returns the round-trip
// time (request sent until the whole response body is read), whether the
// answer is correct, and the response header fields.
func (f *fleet) send(o *op, reqID uint64) (time.Duration, bool, reply, error) {
	var rp reply
	req, err := http.NewRequest(http.MethodPost, f.target+"/v1/gemm", bytes.NewReader(o.body))
	if err != nil {
		return 0, false, rp, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if reqID != 0 {
		req.Header.Set(requestHeader, strconv.FormatUint(reqID, 10))
	}
	t0 := time.Now()
	resp, err := f.client.Do(req)
	if err != nil {
		return time.Since(t0), false, rp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rtt := time.Since(t0)
	if err != nil {
		return rtt, false, rp, err
	}
	if resp.StatusCode != http.StatusOK {
		return rtt, false, rp, fmt.Errorf("%s: HTTP %d: %.200s", o.spec, resp.StatusCode, body)
	}
	rh, c32, c64, err := server.DecodeResponse(bytes.NewReader(body), o.m, o.n, o.f64)
	if err != nil {
		return rtt, false, rp, err
	}
	rp = reply{queueUS: rh.QueueWaitUS, batch: rh.BatchSize, attempts: 1}
	if a, err := strconv.Atoi(resp.Header.Get("X-Shalom-Attempts")); err == nil {
		rp.attempts = a
	}
	return rtt, o.correct(c32, c64), rp, nil
}
