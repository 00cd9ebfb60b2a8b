package docstore

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"rai/internal/blobstore"
)

var testCtx = context.Background()

func collect(t *testing.T, ch <-chan WatchEvent, n int) []WatchEvent {
	t.Helper()
	out := make([]WatchEvent, 0, n)
	timeout := time.After(5 * time.Second)
	for len(out) < n {
		select {
		case ev, ok := <-ch:
			if !ok {
				t.Fatalf("stream closed after %d/%d events", len(out), n)
			}
			out = append(out, ev)
		case <-timeout:
			t.Fatalf("timed out after %d/%d events", len(out), n)
		}
	}
	return out
}

func TestWatchDeliversMutationsInOrder(t *testing.T) {
	db := New()
	ctx, cancel := context.WithCancel(testCtx)
	defer cancel()
	sub := db.Watch(ctx, "jobs")

	id, err := db.Insert("jobs", M{"status": "queued"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Update("jobs", M{"_id": id}, M{"$set": M{"status": "running"}}); err != nil {
		t.Fatal(err)
	}
	// Another collection: invisible to this subscription.
	if _, err := db.Insert("rankings", M{"team": "alpha"}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Delete("jobs", M{"_id": id}); err != nil {
		t.Fatal(err)
	}

	evs := collect(t, sub.Events(), 3)
	wantOps := []string{"insert", "update", "delete"}
	for i, ev := range evs {
		if ev.Op != wantOps[i] || ev.Coll != "jobs" || ev.ID != id {
			t.Errorf("event %d = %+v, want op=%s coll=jobs id=%s", i, ev, wantOps[i], id)
		}
		if i > 0 && evs[i].Seq <= evs[i-1].Seq {
			t.Errorf("seq not increasing: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
	if sub.Dropped() != 0 {
		t.Errorf("dropped = %d, want 0", sub.Dropped())
	}

	cancel()
	// Channel drains then closes after cancel.
	for {
		if _, ok := <-sub.Events(); !ok {
			break
		}
	}
}

func TestWatchAllCollectionsAndDrop(t *testing.T) {
	db := New()
	sub := db.Watch(testCtx, "")
	defer sub.Close()

	db.Insert("a", M{"x": 1})
	db.Insert("b", M{"x": 2})
	db.Drop("a")
	db.Drop("a") // dropping a missing collection emits nothing

	evs := collect(t, sub.Events(), 3)
	if evs[0].Coll != "a" || evs[1].Coll != "b" {
		t.Errorf("events = %+v", evs)
	}
	if evs[2].Op != "drop" || evs[2].Coll != "a" || evs[2].ID != "" {
		t.Errorf("drop event = %+v", evs[2])
	}
}

func TestHTTPWatchStream(t *testing.T) {
	db := New()
	srv := httptest.NewServer(Handler(db, nil))
	defer srv.Close()
	c := NewClient(srv.URL)

	ctx, cancel := context.WithCancel(testCtx)
	defer cancel()
	ch, err := c.WatchContext(ctx, "jobs")
	if err != nil {
		t.Fatal(err)
	}

	// WatchContext returning does not guarantee the server has
	// registered the subscription yet, so keep inserting probes until
	// one is observed.
	deadline := time.After(5 * time.Second)
	var first WatchEvent
waiting:
	for {
		if _, err := db.Insert("jobs", M{"probe": true}); err != nil {
			t.Fatal(err)
		}
		select {
		case ev, ok := <-ch:
			if !ok {
				t.Fatal("watch stream closed early")
			}
			first = ev
			break waiting
		case <-deadline:
			t.Fatal("no watch event arrived")
		case <-time.After(10 * time.Millisecond):
		}
	}
	if first.Op != "insert" || first.Coll != "jobs" {
		t.Errorf("first event = %+v", first)
	}

	cancel()
	deadline = time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				return // closed after cancel, as promised
			}
		case <-deadline:
			t.Fatal("stream did not close after cancel")
		}
	}
}

// TestJournalOnSharedBackend runs the journal over a caller-owned
// memory backend and a mount table, the configuration raidb uses when
// one process hosts both stores.
func TestJournalOnSharedBackend(t *testing.T) {
	be := blobstore.NewMemory()
	defer be.Close()
	table := blobstore.NewTable(be)

	p, err := OpenPersistentBackend(table, "journal", "rai.journal")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Insert("jobs", M{"_id": "j1", "status": "queued"}); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// The backend outlives the journal handle; reopening replays.
	again, err := OpenPersistentBackend(table, "journal", "rai.journal")
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	doc, err := again.FindOne("jobs", M{"_id": "j1"})
	if err != nil || doc["status"] != "queued" {
		t.Fatalf("replayed doc = %v, %v", doc, err)
	}
	if again.JournalSize() == 0 {
		t.Error("journal size not recovered from backend")
	}
}
