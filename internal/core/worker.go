package core

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"rai/internal/archivex"
	"rai/internal/auth"
	"rai/internal/build"
	"rai/internal/cas"
	"rai/internal/clock"
	"rai/internal/docstore"
	"rai/internal/registry"
	"rai/internal/sandbox"
	"rai/internal/shell"
	"rai/internal/telemetry"
	"rai/internal/vfs"
)

// WorkerConfig tunes a worker ("These limits can be changed using the
// RAI worker configuration file", paper §V).
type WorkerConfig struct {
	// ID names the worker in job records.
	ID string
	// MaxConcurrent is the number of jobs accepted at once: multiple
	// early in the course, one during the benchmarking weeks (§V, §VII).
	MaxConcurrent int
	// MemoryBytes, Lifetime and DisableNetwork are the container limits
	// (defaults: 8 GiB, 1 h, network off).
	MemoryBytes int64
	Lifetime    time.Duration
	// RateLimit is the per-user minimum spacing between jobs (30 s).
	RateLimit time.Duration
	// DefaultImage is used when a spec omits the image.
	DefaultImage string
	// Cost overrides the execution cost model (simulation calibration).
	Cost shell.CostModel
	// GPUs is the device count this worker offers; build specs that
	// request more (the paper's reserved "machine requirements"
	// extension, §V) are rejected so the broker can hand them to a
	// bigger worker.
	GPUs int
	// AllowSessions enables interactive sessions on this worker (the
	// paper's §VIII future work; an instructor configuration decision).
	AllowSessions bool
	// SessionIdleTimeout closes sessions with no commands (default 10m).
	SessionIdleTimeout time.Duration
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.ID == "" {
		c.ID = "worker-0"
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 1
	}
	if c.MemoryBytes == 0 {
		c.MemoryBytes = sandbox.DefaultMemoryBytes
	}
	if c.Lifetime == 0 {
		c.Lifetime = sandbox.DefaultLifetime
	}
	if c.RateLimit == 0 {
		c.RateLimit = 30 * time.Second
	}
	if c.DefaultImage == "" {
		c.DefaultImage = "webgpu/rai:root"
	}
	if c.GPUs <= 0 {
		c.GPUs = 1
	}
	return c
}

// Worker executes jobs from the queue inside sandboxed containers
// (paper §V "Worker Operations").
type Worker struct {
	Cfg      WorkerConfig
	Queue    Queue
	Objects  Objects
	DB       docstore.Store
	Auth     *auth.Registry
	Images   *registry.Registry
	DataFS   *vfs.FS // course data volume mounted at /data
	DataPath string  // path of the data directory inside DataFS
	Clock    clock.Clock
	// Telemetry and Tracer, when set, record job metrics (queue delay,
	// in-flight, per-phase timings) and the worker-side spans of each
	// job's trace. Both are optional and nil-safe.
	Telemetry *telemetry.Registry
	Tracer    *telemetry.Tracer
	// Sampler, when set, honors the head-sampling verdict riding each
	// job envelope: the decision is noted so this worker's spans for
	// the trace follow the client's call, and exemplars only link to
	// traces that will actually be retained. The same sampler should
	// wrap the Tracer's span sink. Nil keeps every trace.
	Sampler *telemetry.Sampler
	// Log, when set, emits structured lifecycle events stamped with each
	// job's trace identity. Optional and nil-safe.
	Log *telemetry.Logger

	runtime *sandbox.Runtime
	mu      sync.Mutex
	sub     Subscription
	wg      sync.WaitGroup
	handled int
	tel     workerTelemetry
}

// workerTelemetry caches the per-job instruments resolved once in
// initRuntime; all fields no-op when Telemetry is nil.
type workerTelemetry struct {
	queueDelay *telemetry.Histogram
	inFlight   *telemetry.Gauge
	jobSecs    *telemetry.Histogram
	// jobHDR is the exemplar-linked job duration distribution: each
	// populated latency bucket names a sampled trace to pull up, which
	// is how `raiadmin trace -exemplar slowest` finds its target.
	jobHDR *telemetry.HDRHistogram
	jobs   map[string]*telemetry.Counter   // by terminal status
	phases map[string]*telemetry.Histogram // by execution phase
	// Warm build cache and manifest-materialization accounting
	// (DESIGN.md §16); nil-safe no-ops without a registry.
	bcHits     *telemetry.Counter
	bcMisses   *telemetry.Counter
	bcSavedSec *telemetry.Counter
	casFetches *telemetry.Counter
	casBytes   *telemetry.Counter
}

// initRuntime lazily builds the container runtime.
func (w *Worker) initRuntime() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.runtime == nil {
		w.runtime = sandbox.NewRuntime(w.Images)
	}
	if w.Clock == nil {
		w.Clock = clock.Real{}
	}
	w.Cfg = w.Cfg.withDefaults()
	if w.Telemetry != nil && w.tel.jobs == nil {
		reg := w.Telemetry
		w.tel.queueDelay = reg.Histogram("rai_queue_delay_seconds",
			"time from submission to worker pickup (the paper's Figure 4 queue delay)",
			telemetry.QueueDelayBuckets)
		w.tel.inFlight = reg.Gauge("rai_worker_jobs_in_flight", "jobs executing right now")
		w.tel.jobSecs = reg.Histogram("rai_worker_job_seconds",
			"modeled container wall time per job", telemetry.QueueDelayBuckets)
		w.tel.jobHDR = reg.HDR("rai_worker_job_duration_seconds",
			"per-job wall time with trace exemplars per latency bucket")
		w.tel.jobs = map[string]*telemetry.Counter{}
		for _, st := range []string{StatusSucceeded, StatusFailed, StatusRejected} {
			w.tel.jobs[st] = reg.Counter("rai_worker_jobs_total", "jobs finished", telemetry.L("status", st))
		}
		w.tel.phases = map[string]*telemetry.Histogram{}
		for _, ph := range []string{"pull", "build", "run", "cache"} {
			w.tel.phases[ph] = reg.Histogram("rai_worker_phase_seconds",
				"modeled time per execution phase", telemetry.QueueDelayBuckets, telemetry.L("phase", ph))
		}
		w.tel.bcHits = reg.Counter("rai_buildcache_hits_total", "jobs answered from the warm build cache")
		w.tel.bcMisses = reg.Counter("rai_buildcache_misses_total", "cacheable jobs that had to execute")
		w.tel.bcSavedSec = reg.Counter("rai_buildcache_saved_seconds_total", "container wall time avoided by cache hits")
		w.tel.casFetches = reg.Counter("rai_cas_materialize_chunks_total", "chunks fetched while materializing manifests")
		w.tel.casBytes = reg.Counter("rai_cas_materialize_bytes_total", "chunk bytes fetched while materializing manifests")
	}
}

// RunContext subscribes to rai/tasks and processes jobs until ctx is
// done or Stop is called, then drains: the subscription closes (so the
// broker requeues anything undelivered for other workers) but jobs
// already executing run to completion — killing a student's job halfway
// through grading would be worse than a slow shutdown. Each job is
// handled in its own goroutine, bounded by MaxConcurrent through the
// queue's in-flight window (§V: "we place constraints on the number of
// jobs that can be executed concurrently").
func (w *Worker) RunContext(ctx context.Context) error {
	w.initRuntime()
	sub, err := w.Queue.Subscribe(ctx, TasksTopic, TasksChannel, w.Cfg.MaxConcurrent)
	if err != nil {
		return err
	}
	w.mu.Lock()
	w.sub = sub
	w.mu.Unlock()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			sub.Close()
		case <-stop:
		}
	}()
	for m := range sub.C() {
		m := m
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			// In-flight jobs survive shutdown: detach from ctx's cancel
			// while keeping its values.
			w.process(context.WithoutCancel(ctx), m)
		}()
	}
	w.wg.Wait()
	return nil
}

// Stop detaches from the queue and waits for in-flight jobs.
func (w *Worker) Stop() {
	w.mu.Lock()
	sub := w.sub
	w.mu.Unlock()
	if sub != nil {
		sub.Close()
	}
	w.wg.Wait()
}

// HandleOne synchronously processes a single pending job (used by the
// course simulator and tests). It waits up to wait (on the worker's
// clock) for a job to arrive and reports whether one was handled.
func (w *Worker) HandleOne(ctx context.Context, wait time.Duration) (bool, error) {
	w.initRuntime()
	sub, err := w.Queue.Subscribe(ctx, TasksTopic, TasksChannel, 1)
	if err != nil {
		return false, err
	}
	defer sub.Close()
	select {
	case m, ok := <-sub.C():
		if !ok {
			return false, nil
		}
		// Like RunContext: once accepted, the job runs to completion even
		// if the waiting caller's ctx winds down.
		w.process(context.WithoutCancel(ctx), m)
		return true, nil
	case <-w.Clock.After(wait):
		return false, nil
	case <-ctx.Done():
		return false, ctx.Err()
	}
}

// Handled reports how many jobs this worker has completed.
func (w *Worker) Handled() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.handled
}

// process executes one queue message end to end. ctx carries request
// values but no cancellation — an accepted job runs to completion.
func (w *Worker) process(ctx context.Context, m QueueMsg) {
	defer func() {
		w.mu.Lock()
		w.handled++
		w.mu.Unlock()
	}()
	var req JobRequest
	if err := json.Unmarshal(m.Body, &req); err != nil {
		// Malformed message: nothing to reply to; drop it.
		_ = m.Ack()
		return
	}
	// Figure 4's queue delay: submission to worker pickup.
	w.tel.queueDelay.Observe(w.Clock.Now().Sub(req.SubmittedAt).Seconds())
	w.tel.inFlight.Add(1)
	defer w.tel.inFlight.Add(-1)
	// Continue the client's trace: every span below hangs off the job
	// root whose IDs rode inside the request, and the context carries the
	// dequeue span so storage RPCs (and their server-side child spans)
	// and log events land inside the same tree.
	// Honor the client's head-sampling verdict before any span of ours
	// finishes: the noted decision steers this tracer's span sink, and
	// the context carries it onto storage hops (X-RAI-Sampled).
	sampled := telemetry.ParseDecision(req.Sampled)
	w.Sampler.Note(req.TraceID, sampled)
	proc := w.Tracer.StartSpan(req.TraceID, req.ParentSpan, "dequeue")
	proc.SetAttr("worker", w.Cfg.ID)
	proc.SetAttr("job_id", req.ID)
	defer proc.End()
	ctx = telemetry.ContextWithJobID(ctx, req.ID)
	ctx = telemetry.ContextWithSpan(ctx, proc)
	ctx = telemetry.ContextWithSampling(ctx, sampled)
	w.Log.Info(ctx, "job dequeued",
		telemetry.L("worker", w.Cfg.ID), telemetry.L("kind", req.Kind), telemetry.L("user", req.User))
	logTopic := LogTopic(req.ID)
	logf := func(kind, format string, args ...any) {
		_ = w.Queue.Publish(ctx, logTopic, encodeJSON(&LogMessage{
			JobID: req.ID, Kind: kind, Line: fmt.Sprintf(format, args...),
		}))
	}
	end := func(lm *LogMessage) {
		lm.JobID = req.ID
		lm.Kind = LogEnd
		_ = w.Queue.Publish(ctx, logTopic, encodeJSON(lm))
	}
	reject := func(reason string) {
		logf(LogSystem, "job rejected: %s", reason)
		end(&LogMessage{Status: StatusRejected, Line: reason})
		w.recordJob(ctx, &req, docstore.M{"status": StatusRejected, "error": reason})
		w.tel.jobs[StatusRejected].Inc()
		// The status attr is the collector's tail-retention signal: a
		// rejected trace is an error trace and is always kept.
		proc.SetAttr("status", StatusRejected)
		proc.SetAttr("error", reason)
		w.Log.Warn(ctx, "job rejected", telemetry.L("reason", reason))
		_ = m.Ack()
	}

	// Worker step 2: check credentials and parse the embedded build file.
	if err := w.Auth.VerifyToken(req.AccessKey, req.Token, req.CanonicalPayload()); err != nil {
		reject("authentication failed: " + err.Error())
		return
	}
	if req.Kind != KindRun && req.Kind != KindSubmit && req.Kind != KindSession {
		reject("unknown job kind " + req.Kind)
		return
	}
	if req.Kind == KindSession && !w.Cfg.AllowSessions {
		reject(ErrSessionsDisabled.Error())
		return
	}
	// Rate limit: one job per RateLimit per user (§V "Container
	// Execution": "each student can only submit a job every 30 seconds").
	if ok, wait := w.rateLimitOK(req.User); !ok {
		reject(fmt.Sprintf("rate limited: retry in %v", wait.Round(time.Second)))
		return
	}

	var result execResult
	if req.Kind == KindSession {
		w.recordJob(ctx, &req, docstore.M{"status": "running", "worker": w.Cfg.ID})
		result = w.runSession(ctx, &req, logf)
	} else {
		spec, err := w.resolveSpec(&req)
		if err != nil {
			reject(err.Error())
			return
		}
		if spec.RAI.Resources.GPUs > w.Cfg.GPUs {
			reject(fmt.Sprintf("spec requests %d GPUs; this worker offers %d", spec.RAI.Resources.GPUs, w.Cfg.GPUs))
			return
		}
		// Record the accepted job before running (auditing, §IV).
		w.recordJob(ctx, &req, docstore.M{"status": "running", "worker": w.Cfg.ID})
		result = w.execute(ctx, &req, spec, logf, proc)
	}

	// Worker step 6: upload /build and advertise its location.
	if result.buildArchive != nil {
		buildKey := fmt.Sprintf("%s/%s/build.tar.bz2", req.User, req.ID)
		if err := w.Objects.Put(ctx, BucketBuilds, buildKey, result.buildArchive, UploadTTL); err != nil {
			logf(LogSystem, "failed to upload build directory: %v", err)
		} else {
			result.buildBucket, result.buildKey = BucketBuilds, buildKey
			logf(LogSystem, "build directory uploaded to %s/%s", BucketBuilds, buildKey)
		}
	}

	status := StatusSucceeded
	if !result.ok {
		status = StatusFailed
	}
	w.tel.jobs[status].Inc()
	w.tel.jobSecs.Observe(result.elapsed.Seconds())
	// Stamp the terminal status onto the worker's span so the collector
	// can keep failed traces at 100% regardless of sampling.
	proc.SetAttr("status", status)
	if status == StatusFailed {
		proc.SetAttr("error", "job failed")
	}
	// Exemplars only point at traces that will be retained; an exemplar
	// naming a head-dropped trace would be a dead link.
	exemplarTrace := ""
	if req.TraceID != "" && w.Sampler.Keep(req.TraceID) {
		exemplarTrace = req.TraceID
	}
	w.tel.jobHDR.ObserveExemplar(result.elapsed.Seconds(), exemplarTrace)
	update := docstore.M{
		"status":           status,
		"elapsed_s":        result.elapsed.Seconds(),
		"internal_timer_s": result.internalTimer.Seconds(),
		"accuracy":         result.accuracy,
		"time_report":      result.timeReport,
		"build_bucket":     result.buildBucket,
		"build_key":        result.buildKey,
		"log_bytes":        result.logBytes,
		"cached":           result.cached,
	}
	w.recordJob(ctx, &req, update)

	// Final submissions record timing onto the ranking database,
	// overwriting existing records (§V "Student Final Submission").
	if req.Kind == KindSubmit && result.ok {
		w.upsert(ctx, CollRankings, docstore.M{"team": req.User}, docstore.M{"$set": docstore.M{
			"runtime_s":  result.internalTimer.Seconds(),
			"accuracy":   result.accuracy,
			"job_id":     req.ID,
			"updated_at": w.Clock.Now().UTC().Format(time.RFC3339Nano),
		}})
	}
	w.Log.Info(ctx, "job finished",
		telemetry.L("status", status), telemetry.L("elapsed_s", fmt.Sprintf("%.3f", result.elapsed.Seconds())))

	end(&LogMessage{
		Status:        status,
		Elapsed:       result.elapsed.Seconds(),
		InternalTimer: result.internalTimer.Seconds(),
		Accuracy:      result.accuracy,
		BuildBucket:   result.buildBucket,
		BuildKey:      result.buildKey,
		Cached:        result.cached,
	})
	_ = m.Ack()
}

// resolveSpec picks the effective build file: the enforced Listing 2
// spec for final submissions, the embedded spec (or Listing 1 default)
// otherwise.
func (w *Worker) resolveSpec(req *JobRequest) (*build.Spec, error) {
	if req.Kind == KindSubmit {
		return build.Submission(), nil
	}
	if len(req.BuildSpec) == 0 {
		return build.Default(), nil
	}
	spec, err := build.Parse(req.BuildSpec)
	if err != nil {
		return nil, fmt.Errorf("invalid build specification: %v", err)
	}
	return spec, nil
}

// rateLimitOK consults the job records for the user's last accepted job.
func (w *Worker) rateLimitOK(user string) (bool, time.Duration) {
	if w.Cfg.RateLimit <= 0 {
		return true, 0
	}
	docs, err := w.DB.Find(CollJobs, docstore.M{
		"user":   user,
		"status": docstore.M{"$ne": StatusRejected},
	}, docstore.FindOpts{Sort: []string{"-created_at"}, Limit: 1})
	if err != nil || len(docs) == 0 {
		return true, 0
	}
	createdStr, _ := docs[0]["created_at"].(string)
	last, err := time.Parse(time.RFC3339Nano, createdStr)
	if err != nil {
		return true, 0
	}
	elapsed := w.Clock.Now().Sub(last)
	if elapsed < w.Cfg.RateLimit {
		return false, w.Cfg.RateLimit - elapsed
	}
	return true, 0
}

// recordJob upserts the job document.
func (w *Worker) recordJob(ctx context.Context, req *JobRequest, fields docstore.M) {
	set := docstore.M{
		"user":          req.User,
		"kind":          req.Kind,
		"created_at":    req.SubmittedAt.UTC().Format(time.RFC3339Nano),
		"upload_bucket": req.UploadBucket,
		"upload_key":    req.UploadKey,
	}
	for k, v := range fields {
		set[k] = v
	}
	w.upsert(ctx, CollJobs, docstore.M{"job_id": req.ID}, docstore.M{"$set": set})
}

// upsert routes through the store's context-aware variant when it has
// one (the HTTP client), so the trace identity in ctx propagates to the
// docstore as X-RAI-* headers and its write appears in the job's span
// tree. Plain in-process stores fall back to the context-free call.
func (w *Worker) upsert(ctx context.Context, coll string, filter, update docstore.M) {
	type ctxUpserter interface {
		UpsertContext(ctx context.Context, coll string, filter, update docstore.M) (string, error)
	}
	if u, ok := w.DB.(ctxUpserter); ok {
		_, _ = u.UpsertContext(ctx, coll, filter, update)
		return
	}
	_, _ = w.DB.Upsert(coll, filter, update)
}

// execResult aggregates one job execution.
type execResult struct {
	ok            bool
	elapsed       time.Duration
	internalTimer time.Duration
	accuracy      float64
	timeReport    string
	buildArchive  []byte
	buildBucket   string
	buildKey      string
	logBytes      int64
	// cached marks the job as answered from the warm build cache.
	cached bool
}

// execute downloads the project, runs the build spec in a container, and
// packs /build (worker steps 3–6).
func (w *Worker) execute(ctx context.Context, req *JobRequest, spec *build.Spec, logf func(kind, format string, args ...any), parent *telemetry.Span) execResult {
	var res execResult

	// Worker step 4: download and unpack the project. The upload object
	// is either a tar.bz2 archive (SubmitContext, the paper's path) or a
	// CAS manifest (DESIGN.md §16), told apart by magic. Archives
	// stream straight into the unpacker; manifests materialize the tree
	// chunk by chunk from the store. The download span rides the request
	// context so storage child spans nest under it, and covers the whole
	// transfer.
	dl := parent.Child("download")
	dlCtx := telemetry.ContextWithSpan(ctx, dl)
	rc, _, err := w.Objects.GetReader(dlCtx, req.UploadBucket, req.UploadKey)
	if err != nil {
		dl.End()
		logf(LogSystem, "cannot download project archive: %v", err)
		return res
	}
	hostFS := vfs.New()
	counted := &countingReader{r: rc}
	br := bufio.NewReader(counted)
	magic, _ := br.Peek(len(cas.Magic))
	treeHash := ""
	if cas.IsManifest(magic) {
		body, rerr := io.ReadAll(io.LimitReader(br, cas.MaxManifestBytes+1))
		rc.Close()
		var m *cas.Manifest
		if rerr == nil {
			m, rerr = cas.Decode(body)
		}
		if rerr != nil {
			dl.End()
			logf(LogSystem, "cannot decode project manifest: %v", rerr)
			return res
		}
		fetch := func(hash string) ([]byte, error) {
			return w.Objects.Get(dlCtx, cas.Bucket, cas.ChunkKey(hash))
		}
		fetches, bytesFetched, merr := cas.Materialize(m, fetch, hostFS, "/src")
		w.tel.casFetches.Add(float64(fetches))
		w.tel.casBytes.Add(float64(bytesFetched))
		dl.SetAttr("bytes", fmt.Sprint(counted.n+bytesFetched))
		dl.SetAttr("chunks", fmt.Sprint(fetches))
		dl.End()
		if merr != nil {
			logf(LogSystem, "cannot materialize project tree: %v", merr)
			return res
		}
		treeHash = m.TreeHash
	} else {
		err = unpackProject(br, hostFS)
		rc.Close()
		dl.SetAttr("bytes", fmt.Sprint(counted.n))
		dl.End()
		if err != nil {
			logf(LogSystem, "cannot unpack project archive: %v", err)
			return res
		}
		// Hash the unpacked tree so archive uploads share the
		// build cache with manifest submissions of the same content.
		if m, _, herr := cas.BuildVFS(hostFS, "/src"); herr == nil {
			treeHash = m.TreeHash
		}
	}
	if req.Kind == KindSubmit {
		if err := CheckSubmissionFiles(hostFS, "/src"); err != nil {
			logf(LogSystem, "%v", err)
			return res
		}
	}

	// Warm build cache: a kind-"run" job whose resolved spec and source
	// tree match a previously successful execution replays that result —
	// no container, no build, no run. Final submissions always execute.
	cacheKey := ""
	if req.Kind == KindRun {
		cacheKey = buildCacheKey(spec, treeHash)
	}
	if cacheKey != "" {
		span := parent.Child("cache")
		lookupStart := w.Clock.Now()
		cr, archive, hit := w.lookupBuildCache(telemetry.ContextWithSpan(ctx, span), cacheKey)
		span.SetAttr("hit", fmt.Sprint(hit))
		span.End()
		w.tel.phases["cache"].Observe(w.Clock.Now().Sub(lookupStart).Seconds())
		if hit {
			w.tel.bcHits.Inc()
			w.tel.bcSavedSec.Add(cr.ElapsedS)
			logf(LogSystem, "build cache hit (%s…): identical spec and tree already built; replaying result (saved %.1fs)",
				cacheKey[:12], cr.ElapsedS)
			res.ok = true
			res.cached = true
			res.internalTimer = time.Duration(cr.InternalTimer * float64(time.Second))
			res.accuracy = cr.Accuracy
			res.timeReport = cr.TimeReport
			res.buildArchive = archive
			return res
		}
		w.tel.bcMisses.Inc()
	}

	// Worker step 3: start the sandboxed container with the CUDA volume
	// and pipes feeding the log topic.
	stdout := newLineWriter(func(line string) { logf(LogStdout, "%s", line) })
	stderr := newLineWriter(func(line string) { logf(LogStderr, "%s", line) })
	ctr, err := w.runtime.Start(sandbox.Config{
		Image: spec.RAI.Image,
		Mounts: []sandbox.Mount{
			{Source: hostFS, SourcePath: "/src", Target: "/src", ReadOnly: true},
			{Source: w.DataFS, SourcePath: w.DataPath, Target: "/data", ReadOnly: true},
		},
		MemoryBytes: w.Cfg.MemoryBytes,
		Lifetime:    w.Cfg.Lifetime,
		Stdout:      stdout,
		Stderr:      stderr,
		Cost:        w.Cfg.Cost,
	})
	if err != nil {
		logf(LogSystem, "cannot start container: %v", err)
		return res
	}
	defer ctr.Destroy()
	res.elapsed += ctr.PullLatency
	w.tel.phases["pull"].Observe(ctr.PullLatency.Seconds())

	// Worker step 5: run the build commands. Each command gets a span
	// under the dequeue span: "build" normally, renamed "run" when the
	// command performed inference (the graded phase).
	ok := true
	for _, cmd := range spec.RAI.Commands.Build {
		logf(LogSystem, "$ %s", cmd)
		span := parent.Child("build")
		span.SetAttr("cmd", cmd)
		r, err := ctr.Exec(cmd)
		res.elapsed += r.Wall
		phase := "build"
		if r.RanInference {
			phase = "run"
			span.SetName("run")
			res.internalTimer = r.InternalTimer
			res.accuracy = r.Accuracy
		}
		w.tel.phases[phase].Observe(r.Wall.Seconds())
		span.End()
		if r.TimeReport != "" {
			res.timeReport = r.TimeReport
		}
		if err != nil {
			if errors.Is(err, sandbox.ErrLifetimeExceeded) || errors.Is(err, sandbox.ErrMemoryExceeded) {
				logf(LogSystem, "container killed: %v", err)
			} else {
				logf(LogSystem, "command failed (exit %d)", r.ExitCode)
			}
			ok = false
			break
		}
	}
	stdout.Flush()
	stderr.Flush()
	res.ok = ok
	res.logBytes = stdout.Bytes() + stderr.Bytes()

	// Worker step 6: archive the container's /build directory.
	res.buildArchive = packBuild(ctr.FS(), logf)
	w.storeBuildCache(ctx, cacheKey, &res)
	return res
}

// unpackProject extracts a submitted archive streamed from r into
// hostFS at /src.
func unpackProject(r io.Reader, hostFS *vfs.FS) error {
	return archivex.UnpackVFSFrom(r, hostFS, "/src", archivex.Limits{})
}

// countingReader counts bytes consumed from a stream (span accounting).
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// packBuild archives the container's /build directory (nil on failure,
// which the caller reports but tolerates).
func packBuild(fs *vfs.FS, logf func(kind, format string, args ...any)) []byte {
	blob, err := archivex.PackVFS(fs, "/build")
	if err != nil {
		logf(LogSystem, "cannot pack build directory: %v", err)
		return nil
	}
	return blob
}

// lineWriter splits a stream into lines and hands each to a callback
// (the pipe from the container to the log topic, §V worker step 3).
type lineWriter struct {
	mu    sync.Mutex
	buf   strings.Builder
	emit  func(string)
	total int64
}

func newLineWriter(emit func(string)) *lineWriter {
	return &lineWriter{emit: emit}
}

// Write implements io.Writer.
func (l *lineWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total += int64(len(p))
	for _, b := range p {
		if b == '\n' {
			l.emit(l.buf.String())
			l.buf.Reset()
			continue
		}
		l.buf.WriteByte(b)
	}
	return len(p), nil
}

// Flush emits any unterminated final line.
func (l *lineWriter) Flush() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.buf.Len() > 0 {
		l.emit(l.buf.String())
		l.buf.Reset()
	}
}

// Bytes reports total bytes written.
func (l *lineWriter) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}
