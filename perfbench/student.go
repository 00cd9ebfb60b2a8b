package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"rai/internal/archivex"
	"rai/internal/cas"
	"rai/internal/core"
	"rai/internal/objstore"
	"rai/internal/project"
	"rai/internal/telemetry"
	"rai/internal/vfs"
)

// jobWait bounds one submission's wait for its End message.
const jobWait = 60 * time.Second

// jobRecord is everything the benchmark learned about one submission.
type jobRecord struct {
	sub   submission
	jobID string
	// start is when the client work began (packing or hashing), end when
	// the End message arrived: the latency the student waits for.
	start, end    time.Time
	uploadBytes   int64
	downloadBytes int64
	chunksTotal   int
	chunksSent    int
	cached        bool
	problems      []string // oracle mismatches; empty when correct
}

// student is one simulated `rai submit` user: one broker connection,
// one keep-alive HTTP client for the file server, and the client-side
// telemetry the CLI ships to the collector.
type student struct {
	plan   plan
	queue  *core.RemoteQueue
	exp    *telemetry.Exporter
	client *core.Client
	rec    *recorder
	oracle *oracle
	next   int      // index into plan.subs
	prev   *outcome // the iterate tree's last executed outcome
}

func newStudent(ctx context.Context, c *cluster, p plan, rec *recorder, o *oracle) (*student, error) {
	queue, err := core.NewRemoteQueue(ctx, c.brokerAddr)
	if err != nil {
		return nil, fmt.Errorf("%s: connecting to broker: %w", p.creds.UserName, err)
	}
	exp := telemetry.NewExporter(ctx, "rai", core.ShipTelemetry(queue))
	transport := http.DefaultTransport.(*http.Transport).Clone()
	return &student{
		plan:  p,
		queue: queue,
		exp:   exp,
		client: &core.Client{
			Creds:   p.creds,
			Queue:   queue,
			Objects: objstore.NewClient(c.fsURL, objstore.WithClientTransport(transport)),
			Stdout:  io.Discard,
			LogWait: jobWait,
			Tracer: telemetry.NewTracer(256, telemetry.WithSpanSink(exp.ExportSpan),
				telemetry.WithTracerInstance(telemetry.NewInstanceID(p.creds.UserName))),
			Log: telemetry.NewLogger("rai", telemetry.WithLogSink(exp.ExportEvent)),
		},
		rec:    rec,
		oracle: o,
	}, nil
}

// close flushes the student's telemetry and drops its connections.
func (s *student) close() {
	s.exp.Close()
	_ = s.queue.Close() // the run is over; nothing waits on this connection
}

// submitNext runs the student's next planned submission to its End
// message, downloads the /build archive, and checks the outcome.
func (s *student) submitNext(ctx context.Context) jobRecord {
	turn := s.next
	sub := s.plan.subs[turn%len(s.plan.subs)]
	s.next++
	seq := s.rec.newSeq()
	r := jobRecord{sub: sub, start: clk.Now()}
	var res *core.JobResult
	var err error
	if s.plan.tree != nil {
		res, err = s.submitTree(ctx, sub, turn, seq, &r)
	} else {
		res, err = s.submitArchive(ctx, sub, seq, &r)
	}
	r.end = clk.Now()
	got := outcome{err: err}
	if res != nil {
		r.jobID = res.JobID
		got.status, got.accuracy, got.cached = res.Status, res.Accuracy, res.CachedBuild
		got.internalTimer = res.InternalTimer.Seconds()
		r.cached = res.CachedBuild
	}
	root := span{Name: "submission", Seq: seq, JobID: r.jobID, Start: r.start}
	if err == nil && res.BuildKey != "" {
		t0 := clk.Now()
		got.archive, got.err = s.client.DownloadBuildContext(ctx, res)
		r.downloadBytes = int64(len(got.archive))
		s.rec.add(span{Name: "download", Parent: "submission", Seq: seq, JobID: r.jobID, Start: t0, End: clk.Now()})
	}
	t0 := clk.Now()
	var prev *outcome
	if sub.turn == turnUnchanged {
		prev = s.prev
	}
	r.problems = s.oracle.check(sub, got, prev)
	if !got.cached {
		s.prev = &got
	}
	got.archive = nil // keep the records small
	s.rec.add(span{Name: "verify", Parent: "submission", Seq: seq, JobID: r.jobID, Start: t0, End: clk.Now()})
	root.End = clk.Now()
	s.rec.add(root)
	return r
}

// submitArchive is the paper's path: render the project, pack it as
// .tar.bz2, upload it whole and enqueue the job.
func (s *student) submitArchive(ctx context.Context, sub submission, seq int, r *jobRecord) (*core.JobResult, error) {
	fs := vfs.New()
	if err := project.WriteTo(fs, "/p", sub.spec); err != nil {
		return nil, err
	}
	spec, err := core.PrepareProject(fs, "/p")
	if err != nil {
		return nil, err
	}
	archive, err := archivex.PackVFS(fs, "/p")
	if err != nil {
		return nil, err
	}
	s.rec.add(span{Name: "pack", Parent: "submission", Seq: seq, Start: r.start, End: clk.Now()})
	r.uploadBytes = int64(len(archive))
	t0 := clk.Now()
	res, err := s.client.SubmitContext(ctx, sub.kind, spec, archive)
	s.rec.add(span{Name: "submit", Parent: "submission", Seq: seq, JobID: jobIDOf(res), Start: t0, End: clk.Now()})
	return res, err
}

// submitTree is the delta path: apply the turn's edit, hash the tree
// into a chunk manifest, send only the chunks the server lacks.
func (s *student) submitTree(ctx context.Context, sub submission, turn, seq int, r *jobRecord) (*core.JobResult, error) {
	if sub.turn == turnEdit {
		if err := editLine(s.plan.tree, sub.line, turn); err != nil {
			return nil, err
		}
	}
	spec, err := core.PrepareProject(s.plan.tree, "/p")
	if err != nil {
		return nil, err
	}
	m, src, err := cas.BuildVFS(s.plan.tree, "/p")
	if err != nil {
		return nil, err
	}
	s.rec.add(span{Name: "hash", Parent: "submission", Seq: seq, Start: r.start, End: clk.Now()})
	t0 := clk.Now()
	res, err := s.client.SubmitManifestContext(ctx, sub.kind, spec, m, src)
	s.rec.add(span{Name: "submit", Parent: "submission", Seq: seq, JobID: jobIDOf(res), Start: t0, End: clk.Now()})
	if res != nil && res.Transfer != nil {
		r.uploadBytes = res.Transfer.SentBytes
		r.chunksTotal, r.chunksSent = res.Transfer.ChunksTotal, res.Transfer.ChunksSent
	}
	return res, err
}

func jobIDOf(res *core.JobResult) string {
	if res == nil {
		return ""
	}
	return res.JobID
}
