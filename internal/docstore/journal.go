package docstore

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"rai/internal/blobstore"
)

// Durability: a PersistentDB wraps DB with an append-only journal so the
// raidb daemon survives restarts — the role MongoDB's storage engine
// played in the original deployment. Every mutation is recorded as one
// JSON line; opening a journal replays it into a fresh DB.
//
// The journal is a blob in a blobstore.Backend (bucket/key), written
// through the backend's Append and rewritten via an atomic
// Create at compaction. Running on the disk backend this inherits its
// crash story: a torn compaction never replaces the journal (temp file
// + rename), and a crash mid-append is reconciled from the file size at
// the next open. The format is deliberately simple and append-only:
// grading and auditing care about never losing submission records
// (paper §IV: the database holds "execution times, run-times, and logs
// ... useful for grading or any other coursework auditing process"),
// not about random-access update performance.

// JournalBucket is the bucket OpenPersistent keeps the journal blob in.
const JournalBucket = "journal"

// journalEntry is one logged mutation.
type journalEntry struct {
	Op     string `json:"op"` // insert | update | upsert | delete | drop
	Coll   string `json:"coll"`
	Doc    M      `json:"doc,omitempty"`
	Filter M      `json:"filter,omitempty"`
	Update M      `json:"update,omitempty"`
	// ID pins the document id chosen at execution time so replay is
	// byte-identical (Insert generates random ids otherwise).
	ID string `json:"id,omitempty"`
}

// PersistentDB is a DB whose mutations are journaled to a blob backend.
// Each mutation is applied and appended under mu, so the journal
// records writes in the order they were applied and a reopened
// database replays to the state the live one had.
type PersistentDB struct {
	*DB
	mu     sync.Mutex
	be     blobstore.Backend
	bucket string
	key    string
	w      io.WriteCloser // open append writer; nil once closed
	bw     *bufio.Writer
	size   int64
	ownBE  bool // Close also closes the backend (OpenPersistent path)
}

// OpenPersistent opens (or creates) a journal-backed database persisted
// under path's directory, replaying any existing journal. A flat
// journal file left at path by a pre-blobstore version is migrated into
// the backend layout on first open. The directory should be dedicated
// to the journal.
func OpenPersistent(path string) (*PersistentDB, error) {
	be, err := blobstore.NewDisk(filepath.Dir(path))
	if err != nil {
		return nil, err
	}
	key := filepath.Base(path)
	if st, err := os.Stat(path); err == nil && st.Mode().IsRegular() {
		if _, err := be.Adopt(storeCtx, JournalBucket, key, path); err != nil {
			be.Close()
			return nil, fmt.Errorf("docstore: migrating flat journal: %w", err)
		}
	}
	p, err := OpenPersistentBackend(be, JournalBucket, key)
	if err != nil {
		be.Close()
		return nil, err
	}
	p.ownBE = true
	return p, nil
}

// OpenPersistentBackend opens a journal-backed database over an
// existing backend (or mount table), replaying the blob at bucket/key
// if present. The caller keeps ownership of the backend (Close leaves
// it open). The journal blob should live on a backend without a
// default TTL — an expiring journal is data loss.
func OpenPersistentBackend(be blobstore.Backend, bucket, key string) (*PersistentDB, error) {
	db := New()
	var size int64
	rc, info, err := be.Open(storeCtx, bucket, key)
	switch {
	case err == nil:
		rerr := replay(rc, db)
		rc.Close()
		if rerr != nil {
			return nil, rerr
		}
		size = info.Size
	case errors.Is(err, blobstore.ErrNotFound), errors.Is(err, blobstore.ErrNoBucket):
		// Fresh journal; the first append creates it.
	default:
		return nil, err
	}
	w, err := be.Append(storeCtx, bucket, key)
	if err != nil {
		return nil, err
	}
	return &PersistentDB{
		DB: db, be: be, bucket: bucket, key: key,
		w: w, bw: bufio.NewWriter(w), size: size,
	}, nil
}

// JournalSize reports the journal's current size in bytes.
func (p *PersistentDB) JournalSize() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.size
}

// replay applies every journal line to db.
func replay(r io.Reader, db *DB) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var e journalEntry
		if err := json.Unmarshal(raw, &e); err != nil {
			return fmt.Errorf("docstore: journal line %d: %w", line, err)
		}
		if err := apply(db, &e); err != nil {
			return fmt.Errorf("docstore: journal line %d (%s %s): %w", line, e.Op, e.Coll, err)
		}
	}
	return sc.Err()
}

func apply(db *DB, e *journalEntry) error {
	switch e.Op {
	case "insert":
		doc := e.Doc
		if e.ID != "" {
			doc["_id"] = e.ID
		}
		_, err := db.Insert(e.Coll, doc)
		return err
	case "update":
		_, err := db.Update(e.Coll, e.Filter, e.Update)
		return err
	case "upsert":
		_, err := db.upsert(e.Coll, e.Filter, e.Update, e.ID)
		return err
	case "delete":
		_, err := db.Delete(e.Coll, e.Filter)
		return err
	case "drop":
		db.Drop(e.Coll)
		return nil
	default:
		return fmt.Errorf("unknown journal op %q", e.Op)
	}
}

// errJournalClosed rejects writes after Close (and after a failed
// Compact left no append writer).
var errJournalClosed = errors.New("docstore: journal closed")

// journaled runs one mutation and appends the entry it returns (nil:
// nothing changed, nothing to log) in a single critical section under
// p.mu, then flushes it through to the backend (on disk, straight to
// the O_APPEND file). A closed journal rejects a write before applying
// it.
func (p *PersistentDB) journaled(mutate func() (*journalEntry, error)) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.w == nil {
		return errJournalClosed
	}
	e, err := mutate()
	if err != nil || e == nil {
		return err
	}
	raw, err := json.Marshal(e)
	if err != nil {
		return err
	}
	if _, err := p.bw.Write(append(raw, '\n')); err != nil {
		return err
	}
	if err := p.bw.Flush(); err != nil {
		return err
	}
	p.size += int64(len(raw)) + 1
	return nil
}

// Insert journals and applies an insert.
func (p *PersistentDB) Insert(coll string, doc any) (id string, err error) {
	err = p.journaled(func() (*journalEntry, error) {
		if id, err = p.DB.Insert(coll, doc); err != nil {
			return nil, err
		}
		d, _ := normalize(doc)
		return &journalEntry{Op: "insert", Coll: coll, Doc: d, ID: id}, nil
	})
	return id, err
}

// Update journals and applies an update.
func (p *PersistentDB) Update(coll string, filter, update M) (n int, err error) {
	err = p.journaled(func() (*journalEntry, error) {
		if n, err = p.DB.Update(coll, filter, update); err != nil || n == 0 {
			return nil, err
		}
		return &journalEntry{Op: "update", Coll: coll, Filter: filter, Update: update}, nil
	})
	return n, err
}

// Upsert journals and applies an upsert, recording the document id so
// replay reproduces it.
func (p *PersistentDB) Upsert(coll string, filter, update M) (id string, err error) {
	err = p.journaled(func() (*journalEntry, error) {
		if id, err = p.DB.Upsert(coll, filter, update); err != nil {
			return nil, err
		}
		return &journalEntry{Op: "upsert", Coll: coll, Filter: filter, Update: update, ID: id}, nil
	})
	return id, err
}

// Delete journals and applies a delete.
func (p *PersistentDB) Delete(coll string, filter M) (n int, err error) {
	err = p.journaled(func() (*journalEntry, error) {
		if n, err = p.DB.Delete(coll, filter); err != nil || n == 0 {
			return nil, err
		}
		return &journalEntry{Op: "delete", Coll: coll, Filter: filter}, nil
	})
	return n, err
}

// Drop journals and applies a collection drop.
func (p *PersistentDB) Drop(coll string) error {
	return p.journaled(func() (*journalEntry, error) {
		p.DB.Drop(coll)
		return &journalEntry{Op: "drop", Coll: coll}, nil
	})
}

// Close flushes and closes the journal (committing its size to the
// backend index), and releases the backend when this PersistentDB
// opened it.
func (p *PersistentDB) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.w != nil {
		if err := p.bw.Flush(); err != nil {
			return err
		}
		if err := p.w.Close(); err != nil {
			return err
		}
		p.w = nil
	}
	if p.ownBE && p.be != nil {
		err := p.be.Close()
		p.be = nil
		return err
	}
	return nil
}

// Compact rewrites the journal as a sequence of plain inserts of the
// current state (dropping dead updates/deletes), shrinking long-lived
// journals. The rewrite goes through the backend's Create, so on disk
// it is an atomic replacement: a crash mid-compaction leaves the old
// journal untouched.
func (p *PersistentDB) Compact() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.w == nil {
		return errJournalClosed
	}
	// Stop appending before the rewrite: the Create commit replaces the
	// blob underneath an open O_APPEND descriptor otherwise.
	if err := p.bw.Flush(); err != nil {
		return err
	}
	if err := p.w.Close(); err != nil {
		return err
	}
	p.w = nil
	w, err := p.be.Create(storeCtx, p.bucket, p.key, blobstore.PutOptions{})
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	var n int64
	for _, coll := range p.DB.Collections() {
		docs, err := p.DB.Find(coll, M{}, FindOpts{})
		if err != nil {
			w.Abort()
			return err
		}
		for _, doc := range docs {
			id, _ := doc["_id"].(string)
			raw, err := json.Marshal(&journalEntry{Op: "insert", Coll: coll, Doc: doc, ID: id})
			if err != nil {
				w.Abort()
				return err
			}
			raw = append(raw, '\n')
			if _, err := bw.Write(raw); err != nil {
				w.Abort()
				return err
			}
			n += int64(len(raw))
		}
	}
	if err := bw.Flush(); err != nil {
		w.Abort()
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	// Resume appending onto the compacted blob.
	app, err := p.be.Append(storeCtx, p.bucket, p.key)
	if err != nil {
		return err
	}
	p.w = app
	p.bw = bufio.NewWriter(app)
	p.size = n
	return nil
}

var _ Store = (*PersistentDB)(nil)
