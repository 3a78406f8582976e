package server_test

import (
	"bytes"
	"context"
	"io"
	"math"
	"net"
	"net/http"
	"testing"
	"time"

	"libshalom"
	"libshalom/internal/attrib"
	"libshalom/internal/server"
)

// BenchmarkServeSetup times one serving set-up as perfbench's serve
// workload builds it, which is how shalom-serve builds itself by default:
// a WithTelemetry Context, the attribution engine, server.New, a loopback
// listener and a fresh client. Each iteration then sends the three
// tiny-mix requests (f32 NN 8³, 12³ and 16³), checks every answer bit for
// bit against a direct call, and closes everything again.
func BenchmarkServeSetup(b *testing.B) {
	direct := libshalom.New(libshalom.WithThreads(1))
	var probs []*problem
	for i, s := range []int{8, 12, 16} {
		probs = append(probs, newProblem(b, direct, uint64(i+1), s, s, s, 0))
	}
	direct.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveSetupOnce(b, probs)
	}
}

func serveSetupOnce(b *testing.B, probs []*problem) {
	lifecycle, stop := context.WithCancel(context.Background())
	defer stop()
	lib := libshalom.New(libshalom.WithTelemetry())
	eng := attrib.New(attrib.Config{Recorder: lib.TelemetryRecorder(), Platform: lib.Platform()})
	eng.Start()
	srv := server.New(lib, server.Config{BaseContext: lifecycle, Attrib: eng})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	hs := &http.Server{Handler: srv}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed after Close
	}()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 3, DisableCompression: true}}
	url := "http://" + ln.Addr().String() + "/v1/gemm"
	for _, p := range probs {
		resp, err := client.Post(url, "application/octet-stream", bytes.NewReader(p.body))
		if err != nil {
			b.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("%dx%dx%d: HTTP %d, %v: %.200s", p.h.M, p.h.N, p.h.K, resp.StatusCode, err, raw)
		}
		_, got, _, err := server.DecodeResponse(bytes.NewReader(raw), p.h.M, p.h.N, false)
		if err != nil {
			b.Fatal(err)
		}
		for j := range p.want {
			if math.Float32bits(got[j]) != math.Float32bits(p.want[j]) {
				b.Fatalf("%dx%dx%d: C[%d] = %v, want %v", p.h.M, p.h.N, p.h.K, j, got[j], p.want[j])
			}
		}
	}
	client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		b.Fatal(err)
	}
	_ = hs.Close()
	<-done
	eng.Close()
	lib.Close()
}
