package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"rai/internal/core"
	"rai/internal/docstore"
)

// Deadline-week history preloaded into raidb for the deadline workload:
// the job records, trace spans and log events a semester's last week
// leaves behind, at the scale the ROADMAP measures docstore scans at.
const (
	preloadJobs          = 5000
	preloadSpansPerJob   = 8
	preloadEventsPerJob  = 2
	preloadTeams         = 58
	preloadJournalFile   = "rai.journal"
	preloadJournalSubdir = "journal"
)

// preloadSizes are the collection sizes a preload wrote.
type preloadSizes struct {
	Jobs     int `json:"jobs"`
	Traces   int `json:"traces"`
	Events   int `json:"events"`
	Rankings int `json:"rankings"`
}

// writePreload generates the deadline history from seed through the
// document store's public API, into a disk journal at path that raidb
// replays on boot.
func writePreload(path string, seed uint64) (preloadSizes, error) {
	db, err := docstore.OpenPersistent(path)
	if err != nil {
		return preloadSizes{}, err
	}
	sizes, err := fillPreload(db, seed)
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	return sizes, err
}

func fillPreload(db *docstore.PersistentDB, seed uint64) (preloadSizes, error) {
	var sizes preloadSizes
	r := &rng{s: seed ^ 0xDEAD11E}
	deadline := time.Date(2016, 12, 16, 23, 59, 0, 0, time.UTC)
	week := 7 * 24 * time.Hour
	phases := []string{"upload", "enqueue", "dequeue", "download", "cache", "build", "run"}
	for j := 0; j < preloadJobs; j++ {
		team := fmt.Sprintf("team%02d", 1+r.intn(preloadTeams))
		jobID := fmt.Sprintf("hist%08x%04d", r.next()>>32, j)
		traceID := fmt.Sprintf("rai-%016x", r.next())
		created := deadline.Add(-week + time.Duration(r.float()*float64(week)))
		elapsed := 0.05 + 2*r.float()
		status := core.StatusSucceeded
		if r.float() < 0.11 {
			status = core.StatusFailed
		}
		kind := core.KindRun
		if r.float() < 0.01 {
			kind = core.KindSubmit
		}
		if _, err := db.Insert(core.CollJobs, docstore.M{
			"job_id": jobID, "user": team, "kind": kind,
			"created_at":    created.Format(time.RFC3339Nano),
			"upload_bucket": core.BucketUploads,
			"upload_key":    fmt.Sprintf("%s/%s/project.tar.bz2", team, jobID),
			"status":        status, "worker": "raiworker-1",
			"elapsed_s": elapsed, "internal_timer_s": elapsed / 2,
			"accuracy": 0.8, "time_report": "", "log_bytes": 400 + r.intn(4000),
			"build_bucket": core.BucketBuilds,
			"build_key":    fmt.Sprintf("%s/%s/build.tar.bz2", team, jobID),
			"cached":       false,
		}); err != nil {
			return sizes, err
		}
		sizes.Jobs++
		// One root span plus the client and worker phases, laid end to end.
		at := created
		addSpan := func(name, id, parent string, d time.Duration) error {
			doc := docstore.M{
				"trace_id": traceID, "span_id": id, "parent_id": parent,
				"name": name, "service": "raiworker",
				"start":      at.Format(time.RFC3339Nano),
				"end":        at.Add(d).Format(time.RFC3339Nano),
				"start_s":    float64(at.UnixNano()) / 1e9,
				"duration_s": d.Seconds(),
				"job_id":     jobID,
				"attrs":      docstore.M{"job_id": jobID},
			}
			_, err := db.Insert(core.CollTraces, doc)
			sizes.Traces++
			return err
		}
		total := time.Duration(elapsed * float64(time.Second))
		if err := addSpan("job", "s0", "", total); err != nil {
			return sizes, err
		}
		for k := 0; k < preloadSpansPerJob-1; k++ {
			d := total / time.Duration(preloadSpansPerJob)
			if err := addSpan(phases[k%len(phases)], fmt.Sprintf("s%d", k+1), "s0", d); err != nil {
				return sizes, err
			}
			at = at.Add(d)
		}
		for k, msg := range []string{"job submitted", "job finished"}[:preloadEventsPerJob] {
			ts := created.Add(time.Duration(k) * total)
			if _, err := db.Insert(core.CollEvents, docstore.M{
				"ts": ts.Format(time.RFC3339Nano), "ts_s": float64(ts.UnixNano()) / 1e9,
				"level": "info", "service": "rai", "msg": msg,
				"trace_id": traceID, "span_id": "s0", "job_id": jobID,
			}); err != nil {
				return sizes, err
			}
			sizes.Events++
		}
	}
	for t := 1; t <= preloadTeams; t++ {
		if _, err := db.Upsert(core.CollRankings, docstore.M{"team": fmt.Sprintf("team%02d", t)},
			docstore.M{"$set": docstore.M{"runtime_s": 0.4 + 3*r.float(), "accuracy": 0.8,
				"updated_at": deadline.Format(time.RFC3339Nano)}}); err != nil {
			return sizes, err
		}
		sizes.Rankings++
	}
	return sizes, nil
}

// copyTree copies the regular files under src into dst, so every boot
// replays a pristine copy of the preloaded journal.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !info.Mode().IsRegular() {
			return nil
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			_ = out.Close() // the copy already failed
			return err
		}
		return out.Close()
	})
}
