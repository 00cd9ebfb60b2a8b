package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rai/internal/core"
	"rai/internal/docstore"
)

func insertEvent(t *testing.T, db *docstore.Client, jobID, msg string, tsS float64) {
	t.Helper()
	ts := time.Unix(int64(tsS), 0).UTC().Format(time.RFC3339Nano)
	if _, err := db.Insert(core.CollEvents, docstore.M{
		"job_id": jobID, "msg": msg, "level": "info", "service": "test",
		"ts": ts, "ts_s": tsS,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestLogsPrintsEvents(t *testing.T) {
	srv := httptest.NewServer(docstore.Handler(docstore.New(), nil))
	defer srv.Close()
	db := docstore.NewClient(srv.URL)
	insertEvent(t, db, "job-1", "container started", 100)
	insertEvent(t, db, "job-2", "other job noise", 101)

	var out, errb bytes.Buffer
	if code := logsCmd([]string{"-db", srv.URL, "job-1"}, &out, &errb); code != 0 {
		t.Fatalf("logs exited %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "container started") {
		t.Errorf("output missing event:\n%s", out.String())
	}
	if strings.Contains(out.String(), "other job noise") {
		t.Errorf("output leaked another job's events:\n%s", out.String())
	}
}

// TestLogsWatchNegotiation exercises the stream -follow tails: the
// watch opens on the events collection and delivers a notification per
// insert, and a burst collapses into one reprint.
func TestLogsWatchNegotiation(t *testing.T) {
	srv := httptest.NewServer(docstore.Handler(docstore.New(), nil))
	defer srv.Close()
	db := docstore.NewClient(srv.URL)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch, err := db.WatchContext(ctx, core.CollEvents)
	if err != nil {
		t.Fatal(err)
	}
	insertEvent(t, db, "job-w", "woke the follower", 200)
	select {
	case ev, ok := <-ch:
		if !ok {
			t.Fatal("watch channel closed before delivering")
		}
		if ev.Coll != core.CollEvents || ev.Op != "insert" {
			t.Fatalf("event = %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no watch notification within 5s")
	}
	// Extra queued notifications collapse into one reprint.
	insertEvent(t, db, "job-w", "a", 201)
	insertEvent(t, db, "job-w", "b", 202)
	deadline := time.After(5 * time.Second)
	for got := 0; got < 2; {
		select {
		case _, ok := <-ch:
			if !ok {
				t.Fatal("watch channel closed early")
			}
			got++
		case <-deadline:
			t.Fatal("burst notifications never arrived")
		}
	}
	drainWatch(ch)
	cancel()
	select {
	case <-func() chan struct{} {
		done := make(chan struct{})
		go func() {
			for range ch {
			}
			close(done)
		}()
		return done
	}():
	case <-time.After(5 * time.Second):
		t.Fatal("watch channel did not close after cancel")
	}
}

// TestLogsFollowStreamEnd: when the database's watch stream ends under
// -follow, logs reprints what the last notification announced, says
// the stream ended, and exits 1 instead of hanging or degrading.
func TestLogsFollowStreamEnd(t *testing.T) {
	db := docstore.Handler(docstore.New(), nil)
	mux := http.NewServeMux()
	mux.Handle("/", db)
	mux.HandleFunc("/w/", func(w http.ResponseWriter, r *http.Request) {
		// One notification, then the stream closes, as on a restart.
		fmt.Fprintln(w, `{"seq":1,"op":"insert","coll":"events"}`)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	insertEvent(t, docstore.NewClient(srv.URL), "job-f", "first line", 300)

	var out, errb bytes.Buffer
	if code := logsCmd([]string{"-db", srv.URL, "-follow", "job-f"}, &out, &errb); code != 1 {
		t.Fatalf("logs -follow exited %d, want 1 (stderr %q)", code, errb.String())
	}
	if !strings.Contains(out.String(), "first line") {
		t.Errorf("output missing event:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "watch stream ended") {
		t.Errorf("stderr = %q, want it to say the watch stream ended", errb.String())
	}
}
