package main

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"marchgen/internal/fabric"
	"marchgen/internal/service"
)

// serve starts marchd's HTTP server with the given read timeout on a real
// loopback listener and returns its address.
func serve(t *testing.T, readTimeout time.Duration) string {
	t.Helper()
	srv := service.New(service.Config{Workers: 1, DataDir: t.TempDir()})
	httpSrv := newHTTPServer(srv.Handler(), readTimeout)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go httpSrv.Serve(ln)
	t.Cleanup(func() {
		httpSrv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return ln.Addr().String()
}

// post writes a POST of path with the given Content-Length and body on a
// raw connection — the body may fall short of or run past that length —
// and reads the answer's status line concurrently with the write, as a
// server may answer before it has read the whole body.
func post(t *testing.T, addr, path string, length int64, body io.Reader, wait time.Duration) (status string, err error) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go func() {
		io.WriteString(conn, "POST "+path+" HTTP/1.1\r\nHost: marchd\r\nContent-Type: application/json\r\n"+
			"Content-Length: "+strconv.FormatInt(length, 10)+"\r\n\r\n")
		io.Copy(conn, body)
	}()
	conn.SetReadDeadline(time.Now().Add(wait))
	return bufio.NewReader(conn).ReadString('\n')
}

// TestStalledBodyIsAnswered: a client that announces a 100-byte body and
// sends one byte is answered (or dropped) once the read timeout passes,
// instead of holding its handler forever.
func TestStalledBodyIsAnswered(t *testing.T) {
	addr := serve(t, 50*time.Millisecond)
	for _, path := range []string{"/v1/simulate", "/v1/generate"} {
		start := time.Now()
		status, err := post(t, addr, path, 100, strings.NewReader("{"), 500*time.Millisecond)
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatalf("%s: no answer within 500 ms of a stalled body", path)
		}
		if err == nil && !strings.HasPrefix(status, "HTTP/1.1 ") {
			t.Fatalf("%s: answer %q is not a status line", path, status)
		}
		t.Logf("%s: %q (err %v) after %v", path, strings.TrimSpace(status), err, time.Since(start).Round(time.Millisecond))
	}
}

// TestOversizedBodyIsRefused: a valid simulate request behind
// fabric.MaxBodyBytes of leading whitespace is refused with a 4xx, not
// read to its end and served.
func TestOversizedBodyIsRefused(t *testing.T) {
	addr := serve(t, 10*time.Second)
	doc := `{"march":{"name":"MATS+"},"list":"list2"}`
	pad := io.LimitReader(spaces{}, fabric.MaxBodyBytes)
	status, err := post(t, addr, "/v1/simulate", fabric.MaxBodyBytes+int64(len(doc)),
		io.MultiReader(pad, strings.NewReader(doc)), 10*time.Second)
	if err != nil {
		t.Fatalf("no answer to an oversized body: %v", err)
	}
	if !strings.HasPrefix(status, "HTTP/1.1 4") {
		t.Fatalf("oversized body answered %q, want a 4xx", strings.TrimSpace(status))
	}
}

// spaces is an endless reader of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}
