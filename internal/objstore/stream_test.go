package objstore

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rai/internal/netx"
	"rai/internal/telemetry"
)

// TestHTTPPutTooLargeAborts pins the 413 path: a body over the limit is
// rejected mid-stream, nothing partial becomes visible, and the store's
// byte accounting stays clean.
func TestHTTPPutTooLargeAborts(t *testing.T) {
	s := New()
	srv := httptest.NewServer(Handler(s, nil, WithMaxObjectBytes(64)))
	defer srv.Close()

	req, err := http.NewRequest(http.MethodPut, srv.URL+"/o/b/big", strings.NewReader(strings.Repeat("x", 200)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", res.StatusCode)
	}
	if _, err := s.Head(bg, "b", "big"); err == nil {
		t.Error("partial object visible after 413")
	}
	if used := s.Used(); used != 0 {
		t.Errorf("used = %d after aborted upload, want 0", used)
	}

	// At the limit exactly is still accepted.
	req, err = http.NewRequest(http.MethodPut, srv.URL+"/o/b/fits", strings.NewReader(strings.Repeat("y", 64)))
	if err != nil {
		t.Fatal(err)
	}
	res, err = srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusCreated {
		t.Fatalf("status = %d, want 201", res.StatusCode)
	}
}

// TestHTTPStreamCounters pins that the streaming counters account the
// payload bytes in both directions.
func TestHTTPStreamCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := New()
	srv := httptest.NewServer(Handler(s, nil, WithTelemetry(reg)))
	defer srv.Close()
	c := NewClient(srv.URL)

	payload := bytes.Repeat([]byte("stream"), 100)
	if err := c.PutReader(ctx, "b", "k", bytes.NewReader(payload), int64(len(payload)), 0); err != nil {
		t.Fatal(err)
	}
	rc, size, err := c.GetReader(ctx, "b", "k")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("get reader round trip: %d bytes, %v", len(got), err)
	}
	if size != int64(len(payload)) {
		t.Errorf("content length = %d, want %d", size, len(payload))
	}

	res, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	snap, err := telemetry.ParseText(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(len(payload))
	if v, ok := snap.Value("rai_objstore_stream_bytes_total", telemetry.L("direction", "in")); !ok || v != want {
		t.Errorf("stream bytes in = %v,%v, want %v", v, ok, want)
	}
	if v, ok := snap.Value("rai_objstore_stream_bytes_total", telemetry.L("direction", "out")); !ok || v != want {
		t.Errorf("stream bytes out = %v,%v, want %v", v, ok, want)
	}
}

// TestClientPutReaderRewindsOnRetry drops the first two attempts at the
// transport; a seekable body must rewind and upload intact.
func TestClientPutReaderRewindsOnRetry(t *testing.T) {
	s := New()
	srv := httptest.NewServer(Handler(s, nil))
	defer srv.Close()
	ft := &netx.FlakyTransport{Fail: 2}
	c := NewClient(srv.URL, WithClientPolicy(retryPolicy()), WithClientTransport(ft))

	payload := []byte("seekable payload")
	if err := c.PutReader(ctx, "b", "k", bytes.NewReader(payload), int64(len(payload)), 0); err != nil {
		t.Fatal(err)
	}
	if ft.Attempts() != 3 {
		t.Errorf("attempts = %d, want 3", ft.Attempts())
	}
	got, _, err := s.Get(bg, "b", "k")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("stored content = %q, %v", got, err)
	}
}

// TestClientPutReaderNonSeekableSingleAttempt pins that a one-shot body
// is never replayed: the client downgrades to a single attempt rather
// than retrying with a half-consumed reader.
func TestClientPutReaderNonSeekableSingleAttempt(t *testing.T) {
	s := New()
	srv := httptest.NewServer(Handler(s, nil))
	defer srv.Close()
	ft := &netx.FlakyTransport{Fail: 1}
	c := NewClient(srv.URL, WithClientPolicy(retryPolicy()), WithClientTransport(ft))

	// io.MultiReader hides the ReadSeeker, making the body one-shot.
	body := io.MultiReader(strings.NewReader("one-shot"))
	err := c.PutReader(ctx, "b", "k", body, 8, 0)
	if err == nil {
		t.Fatal("expected the single attempt to fail")
	}
	if ft.Attempts() != 1 {
		t.Errorf("attempts = %d, want 1 (non-seekable body must not retry)", ft.Attempts())
	}
}

// TestClientGetReaderStreams pins that the body stays readable after the
// call returns (the retry loop must not cancel its context) and that a
// missing object still maps to the sentinel.
func TestClientGetReaderStreams(t *testing.T) {
	s := New()
	srv := httptest.NewServer(Handler(s, nil))
	defer srv.Close()
	c := NewClient(srv.URL, WithClientPolicy(retryPolicy()))

	payload := bytes.Repeat([]byte("z"), 4096)
	if _, err := s.Put(bg, "b", "k", payload, 0); err != nil {
		t.Fatal(err)
	}
	rc, size, err := c.GetReader(ctx, "b", "k")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if size != int64(len(payload)) {
		t.Errorf("size = %d, want %d", size, len(payload))
	}
	got, err := io.ReadAll(rc)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("streamed read: %d bytes, %v", len(got), err)
	}

	if _, _, err := c.GetReader(ctx, "b", "missing"); !errors.Is(err, ErrNoObject) {
		t.Errorf("missing object err = %v, want ErrNoObject", err)
	}
}
