// Package docstore implements the MongoDB-like document database RAI
// uses for submission metadata, execution times, logs pointers, and
// competition rankings (paper §IV "MongoDB Database").
//
// Documents are schemaless JSON objects stored in named collections.
// Every document carries a string "_id" (auto-generated when absent).
// Queries use a Mongo-flavoured filter language (equality plus $gt, $gte,
// $lt, $lte, $ne, $in, $exists on dotted paths), with sort/limit/skip and
// field updates via $set, $inc, and $push.
//
// Values are normalized through JSON encoding on insertion, so the
// embedded engine and the HTTP service observe identical typing (numbers
// are float64, as in JSON).
package docstore

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// M is a convenience alias for building documents and filters.
type M = map[string]any

// Errors reported by the store.
var (
	ErrNotFound    = errors.New("docstore: document not found")
	ErrDuplicateID = errors.New("docstore: duplicate _id")
	ErrBadFilter   = errors.New("docstore: bad filter")
	ErrBadUpdate   = errors.New("docstore: bad update")
	ErrBadName     = errors.New("docstore: invalid collection name")
	ErrBadDocument = errors.New("docstore: document must be a JSON object")
	ErrTxnConflict = errors.New("docstore: concurrent modification")
)

// DB is an in-memory multi-collection document database.
type DB struct {
	mu          sync.RWMutex
	collections map[string]*collection
	idSeq       uint64

	// Watch plumbing (watch.go). watchMu nests inside mu: mutations emit
	// while holding mu, so events arrive in operation order.
	watchMu   sync.Mutex
	watchSeq  uint64
	watchSubs map[*WatchSub]struct{}
}

type collection struct {
	docs  map[string]M // _id -> document
	order []string     // insertion order of _ids (deterministic scans)
}

// New creates an empty database.
func New() *DB {
	return &DB{collections: map[string]*collection{}}
}

func validCollection(name string) bool {
	if name == "" || len(name) > 120 || strings.HasPrefix(name, "$") {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '.', r == '-':
		default:
			return false
		}
	}
	return true
}

func (db *DB) coll(name string) (*collection, error) {
	if !validCollection(name) {
		return nil, fmt.Errorf("%w: %q", ErrBadName, name)
	}
	c, ok := db.collections[name]
	if !ok {
		c = &collection{docs: map[string]M{}}
		db.collections[name] = c
	}
	return c, nil
}

// view is coll for readers holding only db.mu.RLock: a missing
// collection reads as empty instead of being created, since creating
// it would write db.collections under a shared lock.
func (db *DB) view(name string) (*collection, error) {
	if !validCollection(name) {
		return nil, fmt.Errorf("%w: %q", ErrBadName, name)
	}
	if c, ok := db.collections[name]; ok {
		return c, nil
	}
	return &collection{}, nil
}

// normalize round-trips v through JSON so stored values use JSON typing.
func normalize(v any) (M, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadDocument, err)
	}
	var doc M
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadDocument, err)
	}
	if doc == nil {
		return nil, ErrBadDocument
	}
	return doc, nil
}

// newID returns a fresh random document id (12 random bytes, hex).
func (db *DB) newID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to a counter; rand failure is effectively impossible.
		db.idSeq++
		return fmt.Sprintf("seq%020d", db.idSeq)
	}
	return hex.EncodeToString(b[:])
}

// Insert stores doc (any JSON-marshalable object) in the collection and
// returns its _id.
func (db *DB) Insert(collName string, doc any) (string, error) {
	d, err := normalize(doc)
	if err != nil {
		return "", err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.insertLocked(collName, d)
}

// insertLocked stores the normalized document d (kept, not copied),
// generating its _id when absent. db.mu must be held.
func (db *DB) insertLocked(collName string, d M) (string, error) {
	c, err := db.coll(collName)
	if err != nil {
		return "", err
	}
	id, ok := d["_id"].(string)
	if !ok || id == "" {
		id = db.newID()
		d["_id"] = id
	}
	if _, exists := c.docs[id]; exists {
		return "", fmt.Errorf("%w: %q", ErrDuplicateID, id)
	}
	c.docs[id] = d
	c.order = append(c.order, id)
	db.emit("insert", collName, id)
	return id, nil
}

// FindOpts shapes a query's result set.
type FindOpts struct {
	// Sort lists dotted field paths; a leading '-' sorts descending.
	Sort  []string
	Skip  int
	Limit int // 0 = unlimited
}

// Find returns documents matching filter, in insertion order unless
// sorted. Returned documents are deep copies.
func (db *DB) Find(collName string, filter M, opts FindOpts) ([]M, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	c, err := db.view(collName)
	if err != nil {
		return nil, err
	}
	var out []M
	for _, id := range c.order {
		doc, ok := c.docs[id]
		if !ok {
			continue
		}
		match, err := matches(doc, filter)
		if err != nil {
			return nil, err
		}
		if match {
			out = append(out, deepCopy(doc))
		}
	}
	if len(opts.Sort) > 0 {
		sortDocs(out, opts.Sort)
	}
	if opts.Skip > 0 {
		if opts.Skip >= len(out) {
			out = nil
		} else {
			out = out[opts.Skip:]
		}
	}
	if opts.Limit > 0 && len(out) > opts.Limit {
		out = out[:opts.Limit]
	}
	return out, nil
}

// FindOne returns the first match or ErrNotFound.
func (db *DB) FindOne(collName string, filter M) (M, error) {
	docs, err := db.Find(collName, filter, FindOpts{Limit: 1})
	if err != nil {
		return nil, err
	}
	if len(docs) == 0 {
		return nil, ErrNotFound
	}
	return docs[0], nil
}

// Count returns the number of matching documents.
func (db *DB) Count(collName string, filter M) (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	c, err := db.view(collName)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, id := range c.order {
		doc, ok := c.docs[id]
		if !ok {
			continue
		}
		match, err := matches(doc, filter)
		if err != nil {
			return 0, err
		}
		if match {
			n++
		}
	}
	return n, nil
}

// Update applies a Mongo-style update ($set, $inc, $push) to all
// documents matching filter and reports how many changed.
func (db *DB) Update(collName string, filter M, update M) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	n, _, err := db.updateLocked(collName, filter, update)
	return n, err
}

// updateLocked is Update with db.mu held; it also reports the _id of the
// first document it changed.
func (db *DB) updateLocked(collName string, filter M, update M) (n int, first string, err error) {
	c, err := db.coll(collName)
	if err != nil {
		return 0, "", err
	}
	nupd, err := normalize(update)
	if err != nil {
		return 0, "", fmt.Errorf("%w: %v", ErrBadUpdate, err)
	}
	for _, id := range c.order {
		doc, ok := c.docs[id]
		if !ok {
			continue
		}
		match, err := matches(doc, filter)
		if err != nil {
			return n, first, err
		}
		if !match {
			continue
		}
		if err := applyUpdate(doc, nupd); err != nil {
			return n, first, err
		}
		if n == 0 {
			first = id
		}
		n++
		db.emit("update", collName, id)
	}
	return n, first, nil
}

// Upsert updates every match and returns the first one's id, or inserts
// update's $set and $inc fields merged with the filter's equality
// fields when nothing matches. The whole operation is one critical
// section, so concurrent upserts of one key leave exactly one document.
// This is the write the ranking database uses ("overwrites existing
// timing records", paper §V).
func (db *DB) Upsert(collName string, filter M, update M) (string, error) {
	return db.upsert(collName, filter, update, "")
}

// upsert is Upsert with the _id an insert should take ("" generates
// one); journal replay passes the recorded id so the document comes
// back under the id it was first given.
func (db *DB) upsert(collName string, filter, update M, id string) (string, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	n, first, err := db.updateLocked(collName, filter, update)
	if err != nil {
		return "", err
	}
	if n > 0 {
		return first, nil
	}
	seed := M{}
	for k, v := range filter {
		if !strings.HasPrefix(k, "$") && !strings.Contains(k, ".") {
			if _, isOp := v.(map[string]any); !isOp {
				seed[k] = v
			}
		}
	}
	for _, op := range []string{"$set", "$inc"} {
		if fields, ok := update[op].(map[string]any); ok {
			for k, v := range fields {
				seed[k] = v
			}
		}
	}
	if id != "" {
		seed["_id"] = id
	}
	d, err := normalize(seed)
	if err != nil {
		return "", err
	}
	return db.insertLocked(collName, d)
}

// Delete removes matching documents and reports how many.
func (db *DB) Delete(collName string, filter M) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	c, err := db.coll(collName)
	if err != nil {
		return 0, err
	}
	n := 0
	kept := c.order[:0]
	for _, id := range c.order {
		doc, ok := c.docs[id]
		if !ok {
			continue
		}
		match, merr := matches(doc, filter)
		if merr != nil {
			return n, merr
		}
		if match {
			delete(c.docs, id)
			n++
			db.emit("delete", collName, id)
		} else {
			kept = append(kept, id)
		}
	}
	c.order = kept
	return n, nil
}

// Collections lists collection names, sorted.
func (db *DB) Collections() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.collections))
	for name := range db.collections {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Drop removes an entire collection.
func (db *DB) Drop(collName string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.collections[collName]; ok {
		delete(db.collections, collName)
		db.emit("drop", collName, "")
	}
}

// Decode re-marshals a stored document into a typed struct.
func Decode(doc M, v any) error {
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}

func deepCopy(doc M) M {
	out := make(M, len(doc))
	for k, v := range doc {
		out[k] = copyValue(v)
	}
	return out
}

func copyValue(v any) any {
	switch t := v.(type) {
	case map[string]any:
		out := make(map[string]any, len(t))
		for k, e := range t {
			out[k] = copyValue(e)
		}
		return out
	case []any:
		out := make([]any, len(t))
		for i, e := range t {
			out[i] = copyValue(e)
		}
		return out
	default:
		return v
	}
}
