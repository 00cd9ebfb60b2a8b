// Package objstore implements the S3-like object file server RAI uses
// (paper §IV "File Storage Server"): student project uploads, worker
// /build outputs, and instructor bulk downloads, with per-object
// lifetimes so files "can be configured to have a particular lifetime
// after which they get deleted" (1–3 months in the paper's deployment;
// expiry is measured from last use, matching §V step 3).
//
// The storage engine itself lives in internal/blobstore (memory and
// disk backends behind one streaming interface); this package is the
// object-server facade over a blobstore.Backend: an in-process API
// (Store), an HTTP server exposing it, and an HTTP client, so the same
// code path works embedded in simulations and as a standalone daemon.
// Archives stream through — PutReader/GetReader on both Store and
// Client move bytes without materializing them, and the []byte
// Put/Get remain as thin adapters for small objects.
package objstore

import (
	"bytes"
	"context"
	"io"
	"time"

	"rai/internal/blobstore"
	"rai/internal/clock"
)

// Errors reported by the store. These alias the blobstore sentinels, so
// errors.Is works across both packages' names for the same condition.
var (
	ErrNoBucket  = blobstore.ErrNoBucket
	ErrNoObject  = blobstore.ErrNotFound
	ErrBadName   = blobstore.ErrBadName
	ErrQuota     = blobstore.ErrQuota
	ErrKeyExists = blobstore.ErrExists
)

// ObjectInfo is object metadata (the blobstore Info, re-exported under
// the name this package always used).
type ObjectInfo = blobstore.Info

// Store is the object-store engine: a thin facade over a
// blobstore.Backend. Every call runs under the caller's context.
type Store struct {
	be blobstore.Backend
}

// Option configures the backend a Store constructor builds.
type Option func(*[]blobstore.Option)

// WithClock substitutes the time source.
func WithClock(c clock.Clock) Option {
	return func(o *[]blobstore.Option) { *o = append(*o, blobstore.WithClock(c)) }
}

// WithCapacity bounds total stored bytes.
func WithCapacity(n int64) Option {
	return func(o *[]blobstore.Option) { *o = append(*o, blobstore.WithCapacity(n)) }
}

// WithDefaultTTL sets the lifetime applied when Put is called with ttl=0.
// The paper's deployment used one month.
func WithDefaultTTL(d time.Duration) Option {
	return func(o *[]blobstore.Option) { *o = append(*o, blobstore.WithDefaultTTL(d)) }
}

func backendOptions(opts []Option) []blobstore.Option {
	var bopts []blobstore.Option
	for _, o := range opts {
		o(&bopts)
	}
	return bopts
}

// New creates an empty in-memory store. For a disk-backed store use
// Open; for mount tables or custom engines use NewWithBackend.
func New(opts ...Option) *Store {
	return &Store{be: blobstore.NewMemory(backendOptions(opts)...)}
}

// Open creates a store that persists objects under dir, loading whatever
// a previous run left there (only metadata is loaded; object bytes stay
// on disk and stream on demand).
func Open(dir string, opts ...Option) (*Store, error) {
	be, err := blobstore.NewDisk(dir, backendOptions(opts)...)
	if err != nil {
		return nil, err
	}
	return &Store{be: be}, nil
}

// NewWithBackend wraps an existing backend (e.g. a blobstore.Table
// routing bucket prefixes to different engines).
func NewWithBackend(be blobstore.Backend) *Store { return &Store{be: be} }

// Close releases the backend.
func (s *Store) Close() error { return s.be.Close() }

// CreateBucket makes a bucket; creating an existing bucket is an error.
func (s *Store) CreateBucket(ctx context.Context, bucket string) error {
	return s.be.MakeBucket(ctx, bucket)
}

// Put stores data at bucket/key. Thin adapter over PutReader for
// callers holding small objects in memory.
func (s *Store) Put(ctx context.Context, bucket, key string, data []byte, ttl time.Duration) (ObjectInfo, error) {
	return s.PutReader(ctx, bucket, key, bytes.NewReader(data), ttl)
}

// PutReader streams r into bucket/key (creating the bucket implicitly,
// as the RAI deployment pre-creates only a handful of well-known
// buckets). A zero ttl adopts the store default. Nothing becomes
// visible unless the whole stream commits, and a failed copy cleans up
// its partial write.
func (s *Store) PutReader(ctx context.Context, bucket, key string, r io.Reader, ttl time.Duration) (ObjectInfo, error) {
	w, err := s.be.Create(ctx, bucket, key, blobstore.PutOptions{TTL: ttl})
	if err != nil {
		return ObjectInfo{}, err
	}
	if _, err := io.Copy(w, r); err != nil {
		w.Abort()
		return ObjectInfo{}, err
	}
	if err := w.Close(); err != nil {
		return ObjectInfo{}, err
	}
	return w.Info(), nil
}

// Get returns the object content and refreshes its last-use time. Thin
// adapter over GetReader; the returned slice is freshly allocated,
// never aliasing store internals.
func (s *Store) Get(ctx context.Context, bucket, key string) ([]byte, ObjectInfo, error) {
	rc, info, err := s.GetReader(ctx, bucket, key)
	if err != nil {
		return nil, ObjectInfo{}, err
	}
	defer rc.Close()
	data := make([]byte, info.Size)
	if _, err := io.ReadFull(rc, data); err != nil {
		return nil, ObjectInfo{}, err
	}
	return data, info, nil
}

// GetReader returns a streaming reader over the object content,
// refreshing last-use (the paper: "deleted one month after the last
// use"). The caller must Close it.
func (s *Store) GetReader(ctx context.Context, bucket, key string) (io.ReadCloser, ObjectInfo, error) {
	return s.be.Open(ctx, bucket, key)
}

// Head returns metadata without touching last-use.
func (s *Store) Head(ctx context.Context, bucket, key string) (ObjectInfo, error) {
	return s.be.Stat(ctx, bucket, key)
}

// Delete removes an object.
func (s *Store) Delete(ctx context.Context, bucket, key string) error {
	return s.be.Remove(ctx, bucket, key)
}

// List returns metadata for keys in bucket with the given prefix, sorted
// by key. Expired objects are excluded (and lazily collected).
func (s *Store) List(ctx context.Context, bucket, prefix string) ([]ObjectInfo, error) {
	return s.be.List(ctx, bucket, prefix)
}

// Buckets lists bucket names, sorted.
func (s *Store) Buckets() []string { return s.be.Buckets() }

// Used reports total stored bytes (expired-but-uncollected objects
// included until a sweep or access removes them).
func (s *Store) Used() int64 { return s.be.Used() }

// Sweep removes all expired objects and reports how many were deleted.
// Deployments run this periodically; simulations call it explicitly.
func (s *Store) Sweep(ctx context.Context) (int, error) { return s.be.Sweep(ctx) }

// Touch refreshes an object's last-use time without reading it (used
// when a URL is shared but the content is not yet fetched).
func (s *Store) Touch(ctx context.Context, bucket, key string) error {
	return s.be.Touch(ctx, bucket, key)
}
