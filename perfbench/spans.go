package main

import (
	"sync"
	"time"

	"rai/internal/collector"
	"rai/internal/docstore"
	"rai/internal/telemetry"
)

// span is one of the benchmark's own spans: a timed call into a layer,
// tied to the submission it served.
type span struct {
	ID     int       `json:"id"`
	Parent string    `json:"parent,omitempty"` // parent span name within the submission; "" = root
	Name   string    `json:"name"`
	Seq    int       `json:"submission"` // one ID per submission
	JobID  string    `json:"job_id,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) ms() float64 { return float64(s.End.Sub(s.Start)) / float64(time.Millisecond) }

// recorder keeps the benchmark's spans in memory; a nil recorder (the
// untraced run) records nothing.
type recorder struct {
	mu    sync.Mutex
	spans []span
	seq   int
}

// newSeq allocates a submission ID.
func (r *recorder) newSeq() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	return r.seq
}

// add records a finished span and returns its ID.
func (r *recorder) add(s span) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// meanMs is the mean duration of the named spans that ended inside
// [from, to], or 0 when there are none.
func (r *recorder) meanMs(name string, from, to time.Time) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var sum float64
	n := 0
	for _, s := range r.spans {
		if s.Name == name && !s.End.Before(from) && !s.End.After(to) {
			sum += s.ms()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// phaseNames are the per-job phases the program's traces carry, in
// pipeline order ("queue" is reported from the worker's own histogram).
var phaseNames = []string{"upload", "enqueue", "queue", "download", "cache", "build", "run"}

// attribution is the per-phase decomposition of the window's jobs,
// read from the spans the program shipped to the collector.
type attribution struct {
	traced int
	// sums of per-job phase and total seconds over traced jobs.
	phase map[string]float64
	total float64
}

// attribute groups the persisted span documents by trace, keeps the
// traces of the given jobs that reached the store complete (client
// root and worker dequeue both present), and folds their phases.
func attribute(docs []docstore.M, jobs map[string]bool) attribution {
	byTrace := map[string][]collector.Span{}
	jobOf := map[string]string{}
	for _, d := range docs {
		tid, _ := d["trace_id"].(string)
		s := collector.Span{SpanData: telemetry.SpanData{
			TraceID: tid,
			Name:    str(d["name"]),
			Start:   parseTS(d["start"]),
			End:     parseTS(d["end"]),
		}}
		s.SpanID, s.ParentID = str(d["span_id"]), str(d["parent_id"])
		byTrace[tid] = append(byTrace[tid], s)
		if j := str(d["job_id"]); j != "" && jobs[j] {
			jobOf[tid] = j
		}
	}
	a := attribution{phase: map[string]float64{}}
	for tid := range jobOf {
		spans := byTrace[tid]
		var haveRoot, haveDequeue bool
		for _, s := range spans {
			haveRoot = haveRoot || s.Name == "job"
			haveDequeue = haveDequeue || s.Name == "dequeue"
		}
		if !haveRoot || !haveDequeue {
			continue
		}
		a.traced++
		for _, p := range collector.Phases(spans) {
			switch p.Name {
			case "total":
				a.total += p.Duration.Seconds()
			case "queue delay":
				a.phase["queue"] += p.Duration.Seconds()
			default:
				a.phase[p.Name] += p.Duration.Seconds()
			}
		}
	}
	return a
}

// meanMs is a phase's mean over traced jobs, in milliseconds.
func (a attribution) meanMs(phase string) float64 {
	if a.traced == 0 {
		return 0
	}
	if phase == "total" {
		return 1000 * a.total / float64(a.traced)
	}
	return 1000 * a.phase[phase] / float64(a.traced)
}

func str(v any) string {
	s, _ := v.(string)
	return s
}

func parseTS(v any) time.Time {
	t, _ := time.Parse(time.RFC3339Nano, str(v))
	return t
}
