package core

import (
	"context"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"rai/internal/build"
	"rai/internal/cas"
	"rai/internal/cnn"
	"rai/internal/docstore"
	"rai/internal/objstore"
	"rai/internal/project"
)

// flakyObjects wraps an Objects port and fails selected operations.
type flakyObjects struct {
	inner    Objects
	mu       sync.Mutex
	failGets int // fail this many Get calls, then recover
	failPuts int
}

func (f *flakyObjects) Get(ctx context.Context, bucket, key string) ([]byte, error) {
	f.mu.Lock()
	fail := f.failGets > 0
	if fail {
		f.failGets--
	}
	f.mu.Unlock()
	if fail {
		return nil, errors.New("injected: file server unavailable")
	}
	return f.inner.Get(ctx, bucket, key)
}

func (f *flakyObjects) Put(ctx context.Context, bucket, key string, data []byte, ttl time.Duration) error {
	f.mu.Lock()
	fail := f.failPuts > 0
	if fail {
		f.failPuts--
	}
	f.mu.Unlock()
	if fail {
		return errors.New("injected: file server unavailable")
	}
	return f.inner.Put(ctx, bucket, key, data, ttl)
}

// The streaming pair shares the failure counters with Get/Put, so the
// worker's streamed download path exercises the same injected faults.
func (f *flakyObjects) GetReader(ctx context.Context, bucket, key string) (io.ReadCloser, int64, error) {
	f.mu.Lock()
	fail := f.failGets > 0
	if fail {
		f.failGets--
	}
	f.mu.Unlock()
	if fail {
		return nil, 0, errors.New("injected: file server unavailable")
	}
	return f.inner.GetReader(ctx, bucket, key)
}

func (f *flakyObjects) PutReader(ctx context.Context, bucket, key string, r io.Reader, size int64, ttl time.Duration) error {
	f.mu.Lock()
	fail := f.failPuts > 0
	if fail {
		f.failPuts--
	}
	f.mu.Unlock()
	if fail {
		return errors.New("injected: file server unavailable")
	}
	return f.inner.PutReader(ctx, bucket, key, r, size, ttl)
}

func (f *flakyObjects) List(ctx context.Context, bucket, prefix string) ([]objstore.ObjectInfo, error) {
	return f.inner.List(ctx, bucket, prefix)
}

func (f *flakyObjects) Delete(ctx context.Context, bucket, key string) error {
	return f.inner.Delete(ctx, bucket, key)
}

func (f *flakyObjects) MissingChunks(ctx context.Context, m *cas.Manifest) ([]string, error) {
	return f.inner.MissingChunks(ctx, m)
}

func (f *flakyObjects) PutChunks(ctx context.Context, hashes []string, src cas.Source) (int64, error) {
	return f.inner.PutChunks(ctx, hashes, src)
}

// failingDB wraps a docstore.Store and errors every write.
type failingDB struct{ inner docstore.Store }

func (f failingDB) Insert(coll string, doc any) (string, error) {
	return "", errors.New("injected: database down")
}
func (f failingDB) Find(coll string, filter docstore.M, opts docstore.FindOpts) ([]docstore.M, error) {
	return nil, errors.New("injected: database down")
}
func (f failingDB) FindOne(coll string, filter docstore.M) (docstore.M, error) {
	return nil, errors.New("injected: database down")
}
func (f failingDB) Count(coll string, filter docstore.M) (int, error) {
	return 0, errors.New("injected: database down")
}
func (f failingDB) Update(coll string, filter, update docstore.M) (int, error) {
	return 0, errors.New("injected: database down")
}
func (f failingDB) Upsert(coll string, filter, update docstore.M) (string, error) {
	return "", errors.New("injected: database down")
}
func (f failingDB) Delete(coll string, filter docstore.M) (int, error) {
	return 0, errors.New("injected: database down")
}

func TestWorkerDownloadFailureFailsJobCleanly(t *testing.T) {
	e := newEnv(t)
	flaky := &flakyObjects{inner: e.objects, failGets: 100}
	e.worker.Objects = flaky
	c := e.client(t, "team-flaky")
	var term strings.Builder
	c.Stdout = &term
	archive := packProject(t, project.Spec{Impl: cnn.ImplTiled})
	res, err := submitAndHandle(t, e, c, KindRun, build.Default(), archive)
	if err != nil {
		t.Fatal(err)
	}
	// The client is told, promptly and cleanly — no hang, no crash.
	if res.Status != StatusFailed {
		t.Fatalf("status = %q", res.Status)
	}
	if !strings.Contains(term.String(), "cannot download project archive") {
		t.Errorf("terminal:\n%s", term.String())
	}
}

func TestWorkerUploadFailureStillEndsJob(t *testing.T) {
	e := newEnv(t)
	// Client upload works (client uses the real port); only the worker's
	// build upload fails.
	flaky := &flakyObjects{inner: e.objects, failPuts: 100}
	e.worker.Objects = flaky
	c := e.client(t, "team-buildup")
	var term strings.Builder
	c.Stdout = &term
	archive := packProject(t, project.Spec{Impl: cnn.ImplIm2col})
	res, err := submitAndHandle(t, e, c, KindRun, build.Default(), archive)
	if err != nil {
		t.Fatal(err)
	}
	// The job itself succeeded; only the artifact upload was lost.
	if res.Status != StatusSucceeded {
		t.Fatalf("status = %q", res.Status)
	}
	if res.BuildKey != "" {
		t.Error("build key advertised despite failed upload")
	}
	if !strings.Contains(term.String(), "failed to upload build directory") {
		t.Errorf("terminal:\n%s", term.String())
	}
}

func TestWorkerSurvivesDatabaseOutage(t *testing.T) {
	e := newEnv(t)
	e.worker.DB = failingDB{inner: e.db}
	e.worker.Cfg.RateLimit = 0 // the limiter consults the (down) DB
	c := e.client(t, "team-dbless")
	archive := packProject(t, project.Spec{Impl: cnn.ImplIm2col})
	res, err := submitAndHandle(t, e, c, KindRun, build.Default(), archive)
	if err != nil {
		t.Fatal(err)
	}
	// Metadata is best-effort; execution is not gated on the database.
	if res.Status != StatusSucceeded {
		t.Fatalf("status = %q", res.Status)
	}
}

func TestRateLimitFailsOpenWhenDBDown(t *testing.T) {
	e := newEnv(t)
	e.worker.DB = failingDB{inner: e.db}
	// RateLimit active, but its source of truth is down: jobs proceed
	// (availability over strictness for a dev-loop limiter).
	c := e.client(t, "team-ratelimit-db")
	archive := packProject(t, project.Spec{Impl: cnn.ImplTiled})
	res, err := submitAndHandle(t, e, c, KindRun, build.Default(), archive)
	if err != nil || res.Status != StatusSucceeded {
		t.Fatalf("res = %+v, %v", res, err)
	}
}

func TestClientUploadFailure(t *testing.T) {
	e := newEnv(t)
	c := e.client(t, "team-up")
	c.Objects = &flakyObjects{inner: e.objects, failPuts: 1}
	archive := packProject(t, project.Spec{Impl: cnn.ImplTiled})
	if _, err := c.SubmitContext(context.Background(), KindRun, build.Default(), archive); err == nil || !strings.Contains(err.Error(), "uploading project") {
		t.Fatalf("upload failure: %v", err)
	}
}

// TestCrashedWorkerJobIsRedelivered is the §V resiliency story end to
// end: a worker accepts a job and dies before acknowledging; the broker
// requeues it and a healthy worker completes it — the client never
// notices beyond the delay.
func TestCrashedWorkerJobIsRedelivered(t *testing.T) {
	e := newEnv(t)
	c := e.client(t, "team-resilient")
	archive := packProject(t, project.Spec{Impl: cnn.ImplIm2col, Team: "team-resilient"})

	type out struct {
		res *JobResult
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := c.SubmitContext(context.Background(), KindRun, build.Default(), archive)
		done <- out{res, err}
	}()

	// The doomed worker: takes the message off rai/tasks and crashes
	// (connection close) without acking.
	doomed, err := e.queue.Subscribe(context.Background(), TasksTopic, TasksChannel, 1)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-doomed.C():
		// received, never acked
	case <-time.After(5 * time.Second):
		t.Fatal("doomed worker never got the job")
	}
	doomed.Close() // crash: broker requeues the in-flight job

	// A healthy worker picks the redelivered job up.
	if _, err := e.worker.HandleOne(context.Background(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.res.Status != StatusSucceeded {
			t.Fatalf("status = %q", o.res.Status)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("client never got the End message after worker crash")
	}
}

func TestGPUResourceRequestEnforced(t *testing.T) {
	e := newEnv(t)
	c := e.client(t, "team-multi-gpu")
	spec := &build.Spec{RAI: build.Section{
		Version:   "0.2",
		Image:     "webgpu/rai:root",
		Resources: build.Resources{GPUs: 4},
		Commands:  build.Commands{Build: []string{"echo hi"}},
	}}
	archive := packProject(t, project.Spec{Impl: cnn.ImplTiled})
	// Default worker offers 1 GPU: rejected.
	_, err := submitAndHandle(t, e, c, KindRun, spec, archive)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("4-GPU spec on 1-GPU worker: %v", err)
	}
	// A 4-GPU worker accepts it.
	e.worker.Cfg.GPUs = 4
	e.clock.Advance(time.Minute)
	res, err := submitAndHandle(t, e, c, KindRun, spec, archive)
	if err != nil || res.Status != StatusSucceeded {
		t.Fatalf("4-GPU spec on 4-GPU worker: %v %+v", err, res)
	}
}

func TestMalformedQueueMessageIgnored(t *testing.T) {
	e := newEnv(t)
	// Garbage on the tasks topic must not wedge the worker.
	if err := e.queue.Publish(context.Background(), TasksTopic, []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	handled, err := e.worker.HandleOne(context.Background(), 2*time.Second)
	if err != nil || !handled {
		t.Fatalf("malformed message: handled=%v err=%v", handled, err)
	}
	// The worker is still healthy for real jobs.
	c := e.client(t, "team-after-garbage")
	archive := packProject(t, project.Spec{Impl: cnn.ImplTiled})
	res, err := submitAndHandle(t, e, c, KindRun, build.Default(), archive)
	if err != nil || res.Status != StatusSucceeded {
		t.Fatalf("post-garbage job: %v %+v", res, err)
	}
}
