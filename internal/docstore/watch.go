package docstore

import (
	"context"
	"sync/atomic"
)

// Watch support: mutations emit events so followers (raiadmin logs
// -follow, dashboards) can wake on change instead of polling. Delivery
// uses per-subscriber buffered channels and non-blocking sends (a slow
// subscriber drops events and counts them rather than stalling
// writers); events are ordered by a database-wide sequence number.

// watchBuffer is the per-subscription channel depth.
const watchBuffer = 256

// WatchEvent is one observed mutation. ID is empty for collection-wide
// operations (drop) and for filter-addressed mutations that touched
// multiple documents (one event per document is emitted, each with its
// id).
type WatchEvent struct {
	Seq  uint64 `json:"seq"`
	Op   string `json:"op"` // insert | update | delete | drop
	Coll string `json:"coll"`
	ID   string `json:"id,omitempty"`
}

// WatchSub is a live subscription. Receive from Events; the channel
// closes when the context given to Watch ends or Close is called.
type WatchSub struct {
	db      *DB
	coll    string
	ch      chan WatchEvent
	dropped atomic.Uint64
	stop    func() bool
}

// Events is the delivery channel.
func (s *WatchSub) Events() <-chan WatchEvent { return s.ch }

// Dropped reports how many events were discarded because the
// subscriber fell behind its buffer.
func (s *WatchSub) Dropped() uint64 { return s.dropped.Load() }

// Close ends the subscription and closes Events.
func (s *WatchSub) Close() {
	if s.stop != nil {
		s.stop()
	}
	s.db.unsubscribe(s)
}

// Watch subscribes to mutations of coll ("" = all collections). The
// subscription ends when ctx is canceled or Close is called.
func (db *DB) Watch(ctx context.Context, coll string) *WatchSub {
	s := &WatchSub{db: db, coll: coll, ch: make(chan WatchEvent, watchBuffer)}
	db.watchMu.Lock()
	if db.watchSubs == nil {
		db.watchSubs = map[*WatchSub]struct{}{}
	}
	db.watchSubs[s] = struct{}{}
	db.watchMu.Unlock()
	// The callback goes straight to unsubscribe rather than s.Close so it
	// never races with this assignment.
	s.stop = context.AfterFunc(ctx, func() { db.unsubscribe(s) })
	return s
}

func (db *DB) unsubscribe(s *WatchSub) {
	db.watchMu.Lock()
	defer db.watchMu.Unlock()
	if _, ok := db.watchSubs[s]; ok {
		delete(db.watchSubs, s)
		close(s.ch)
	}
}

// emit fans one event out to matching subscribers. Callers hold db.mu,
// which orders events in mutation order; watchMu alone protects the
// subscriber set, so Watch/Close never contend with document reads.
func (db *DB) emit(op, coll, id string) {
	db.watchMu.Lock()
	defer db.watchMu.Unlock()
	if len(db.watchSubs) == 0 {
		return
	}
	db.watchSeq++
	ev := WatchEvent{Seq: db.watchSeq, Op: op, Coll: coll, ID: id}
	for s := range db.watchSubs {
		if s.coll != "" && s.coll != coll {
			continue
		}
		select {
		case s.ch <- ev:
		default:
			s.dropped.Add(1)
		}
	}
}

// WatchStore is a Store whose mutations can be watched — DB and
// PersistentDB. It is what the HTTP layer serves, /w/ stream included;
// remote Clients expose WatchContext instead.
type WatchStore interface {
	Store
	Watch(ctx context.Context, coll string) *WatchSub
}

var (
	_ WatchStore = (*DB)(nil)
	_ WatchStore = (*PersistentDB)(nil)
)
