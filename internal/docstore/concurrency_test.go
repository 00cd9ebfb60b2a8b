package docstore

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// hammer runs n goroutines released together, each calling op(g).
func hammer(t *testing.T, n int, op func(g int) error) {
	t.Helper()
	start := make(chan struct{})
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			errs <- op(g)
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentUpsertsLeaveOneRow is the ranking invariant (each team
// has exactly one row): N concurrent upserts of one key, on the
// in-memory DB and on the journal, leave one document, and the journal
// brings it back under the same _id.
func TestConcurrentUpsertsLeaveOneRow(t *testing.T) {
	const trials, writers = 40, 8
	upsert := func(s Store) func(g int) error {
		return func(g int) error {
			_, err := s.Upsert("rankings", M{"team": "t1"}, M{"$set": M{"runtime_s": float64(g)}})
			return err
		}
	}
	one := func(t *testing.T, s Store) M {
		t.Helper()
		docs, err := s.Find("rankings", M{"team": "t1"}, FindOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if len(docs) != 1 {
			t.Fatalf("%d rows for one team after %d concurrent upserts, want 1", len(docs), writers)
		}
		return docs[0]
	}
	t.Run("DB", func(t *testing.T) {
		for trial := 0; trial < trials; trial++ {
			db := New()
			hammer(t, writers, upsert(db))
			one(t, db)
		}
	})
	t.Run("PersistentDB", func(t *testing.T) {
		for trial := 0; trial < trials; trial++ {
			path := filepath.Join(t.TempDir(), "rai.journal")
			p, err := OpenPersistent(path)
			if err != nil {
				t.Fatal(err)
			}
			hammer(t, writers, upsert(p))
			live := one(t, p)
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			again, err := OpenPersistent(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := one(t, again); got["_id"] != live["_id"] {
				t.Fatalf("replayed _id %v, live _id %v", got["_id"], live["_id"])
			}
			again.Close()
		}
	})
}

// TestJournalOrderMatchesApplyOrder races updates on one document and
// checks that reopening the journal reproduces exactly the live state.
// Each update also $pushes its own tag, so a journal that records any
// two writes in a different order than they were applied replays to a
// different array, not only to a different final $set value.
func TestJournalOrderMatchesApplyOrder(t *testing.T) {
	const trials, writers, writes = 20, 8, 50
	for trial := 0; trial < trials; trial++ {
		path := filepath.Join(t.TempDir(), "rai.journal")
		p, err := OpenPersistent(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Insert("rankings", M{"_id": "t1", "v": "", "log": []any{}}); err != nil {
			t.Fatal(err)
		}
		hammer(t, writers, func(g int) error {
			for i := 0; i < writes; i++ {
				tag := fmt.Sprintf("%d-%d", g, i)
				if _, err := p.Update("rankings", M{"_id": "t1"}, M{"$set": M{"v": tag}, "$push": M{"log": tag}}); err != nil {
					return err
				}
			}
			return nil
		})
		live, err := p.Find("rankings", M{}, FindOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := OpenPersistent(path)
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := again.Find("rankings", M{}, FindOpts{})
		again.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(live, replayed) {
			t.Fatalf("trial %d: replayed state differs from the live one", trial)
		}
	}
}
