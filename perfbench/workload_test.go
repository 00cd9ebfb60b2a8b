package main

import (
	"os"
	"reflect"
	"testing"
	"time"

	"rai/internal/cas"
	"rai/internal/core"
	"rai/internal/docstore"
)

func TestCoursePlansDeterministicPerSeed(t *testing.T) {
	creds := studentCreds(7, 2)
	a := coursePlans(7, creds, false)
	b := coursePlans(7, studentCreds(7, 2), false)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different course plans")
	}
	c := coursePlans(8, studentCreds(8, 2), false)
	if reflect.DeepEqual(a[0].subs[:50], c[0].subs[:50]) {
		t.Fatal("different seeds gave the same course plans")
	}
	if reflect.DeepEqual(creds, studentCreds(8, 2)) {
		t.Fatal("different seeds gave the same credentials")
	}
	for i, p := range a {
		if len(p.subs) != planLength {
			t.Errorf("student %d plan has %d submissions, want %d", i, len(p.subs), planLength)
		}
	}
}

func TestCoursePlansMixTheCourse(t *testing.T) {
	kinds, bugs, impls := map[string]int{}, map[string]int{}, map[int]bool{}
	for _, p := range coursePlans(3, studentCreds(3, 2), false) {
		for _, s := range p.subs {
			kinds[s.kind]++
			bugs[s.spec.Bug]++
			impls[int(s.spec.Impl)] = true
		}
	}
	if kinds[core.KindRun] == 0 || bugs["compile"] == 0 || bugs["crash"] == 0 || len(impls) < 3 {
		t.Errorf("plans lack the course mix: kinds %v, bugs %v, %d kernel levels", kinds, bugs, len(impls))
	}
}

func TestDeadlinePlansAreLateInTheCourse(t *testing.T) {
	late := coursePlans(5, studentCreds(5, 2), true)
	all := coursePlans(5, studentCreds(5, 2), false)
	mean := func(ps []plan) float64 {
		var sum, n float64
		for _, p := range ps {
			for _, s := range p.subs {
				sum += float64(s.spec.Impl)
				n++
			}
		}
		return sum / n
	}
	if mean(late) <= mean(all) {
		t.Errorf("last-two-weeks kernels (mean level %.2f) are not ahead of the whole course (%.2f)", mean(late), mean(all))
	}
}

func TestIteratePlansDeterministicPerSeed(t *testing.T) {
	read := func(seed uint64) ([]plan, [][]byte) {
		ps, err := iteratePlans(seed, studentCreds(seed, 2))
		if err != nil {
			t.Fatal(err)
		}
		var trees [][]byte
		for _, p := range ps {
			for f := 0; f < weightFiles; f++ {
				data, err := p.tree.ReadFile(weightPath(f))
				if err != nil {
					t.Fatal(err)
				}
				trees = append(trees, data)
			}
		}
		return ps, trees
	}
	a, ta := read(11)
	b, tb := read(11)
	if !reflect.DeepEqual(ta, tb) {
		t.Fatal("same seed gave different project trees")
	}
	for i := range a {
		if !reflect.DeepEqual(a[i].subs, b[i].subs) {
			t.Fatal("same seed gave different turn sequences")
		}
	}
	c, tc := read(12)
	if reflect.DeepEqual(ta, tc) || reflect.DeepEqual(a[0].subs, c[0].subs) {
		t.Fatal("different seeds gave the same iterate inputs")
	}
	turns := map[string]int{}
	for _, s := range a[0].subs {
		turns[s.turn]++
	}
	if a[0].subs[0].turn != turnCold || turns[turnCold] != 1 {
		t.Errorf("want exactly one cold upload, first: %v", turns)
	}
	share := float64(turns[turnUnchanged]) / float64(len(a[0].subs)-1)
	if share < unchangedShare-0.05 || share > unchangedShare+0.05 {
		t.Errorf("unchanged share %.3f, want about %.2f", share, unchangedShare)
	}
}

func TestEditLineChangesOneLineOfOneChunk(t *testing.T) {
	ps, err := iteratePlans(1, studentCreds(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	m0, _, err := cas.BuildVFS(ps[0].tree, "/p")
	if err != nil {
		t.Fatal(err)
	}
	line := 3*weightLines + 17
	path := weightPath(3)
	before, _ := ps[0].tree.ReadFile(path)
	if err := editLine(ps[0].tree, line, 123456); err != nil {
		t.Fatal(err)
	}
	after, _ := ps[0].tree.ReadFile(path)
	if len(after) > cas.MinChunk {
		t.Errorf("edited weights file is %d bytes, above one chunk (%d)", len(after), cas.MinChunk)
	}
	m1, _, err := cas.BuildVFS(ps[0].tree, "/p")
	if err != nil {
		t.Fatal(err)
	}
	old := map[string]bool{}
	for _, h := range m0.ChunkSet() {
		old[h] = true
	}
	fresh := 0
	for _, h := range m1.ChunkSet() {
		if !old[h] {
			fresh++
		}
	}
	if fresh != 1 {
		t.Errorf("edit produced %d new chunks, want exactly 1", fresh)
	}
	diff := 0
	bl, al := splitLines(before), splitLines(after)
	if len(bl) != len(al) {
		t.Fatalf("edit changed the line count %d -> %d", len(bl), len(al))
	}
	for i := range bl {
		if bl[i] != al[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Errorf("edit changed %d lines, want 1", diff)
	}
}

func splitLines(b []byte) []string {
	var out []string
	start := 0
	for i, c := range b {
		if c == '\n' {
			out = append(out, string(b[start:i]))
			start = i + 1
		}
	}
	return append(out, string(b[start:]))
}

func TestPreloadDeterministicSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("writes a full deadline journal")
	}
	dir := t.TempDir() + "/j"
	path := dir + "/" + preloadJournalFile
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	sizes, err := writePreload(path, 9)
	if err != nil {
		t.Fatal(err)
	}
	want := preloadSizes{Jobs: preloadJobs, Traces: preloadJobs * preloadSpansPerJob, Events: preloadJobs * preloadEventsPerJob, Rankings: preloadTeams}
	if sizes != want {
		t.Errorf("sizes %+v, want %+v", sizes, want)
	}
	// raidb replays the journal on boot; the replayed store must hold
	// the same collections.
	db, err := docstore.OpenPersistent(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for coll, n := range map[string]int{core.CollJobs: want.Jobs, core.CollTraces: want.Traces, core.CollEvents: want.Events} {
		if got, _ := db.Count(coll, docstore.M{}); got != n {
			t.Errorf("%s: replayed %d docs, want %d", coll, got, n)
		}
	}
}

func TestAttributeCountsOnlyCompleteTraces(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	doc := func(trace, name, job string, from, to time.Duration) docstore.M {
		return docstore.M{"trace_id": trace, "span_id": name, "name": name, "job_id": job,
			"start": t0.Add(from).Format(time.RFC3339Nano), "end": t0.Add(to).Format(time.RFC3339Nano)}
	}
	ms := time.Millisecond
	docs := []docstore.M{
		doc("t1", "job", "j1", 0, 100*ms),
		doc("t1", "upload", "", 0, 10*ms),
		doc("t1", "enqueue", "", 10*ms, 12*ms),
		doc("t1", "dequeue", "j1", 20*ms, 90*ms),
		doc("t1", "run", "", 30*ms, 60*ms),
		// t2 has no worker span yet: still in flight at the collector.
		doc("t2", "job", "j2", 0, 50*ms),
		// t3 belongs to a job outside the window.
		doc("t3", "job", "old", 0, 10*ms),
		doc("t3", "dequeue", "old", 1*ms, 9*ms),
	}
	a := attribute(docs, map[string]bool{"j1": true, "j2": true})
	if a.traced != 1 {
		t.Fatalf("traced = %d, want 1", a.traced)
	}
	for phase, want := range map[string]float64{"total": 100, "upload": 10, "enqueue": 2, "queue": 8, "run": 30} {
		if got := a.meanMs(phase); got < want-1e-6 || got > want+1e-6 {
			t.Errorf("%s = %v ms, want %v", phase, got, want)
		}
	}
}

func TestJudgePredictions(t *testing.T) {
	p := prediction{heavy: wlDeadline, flat: []string{wlCourse, wlIterate}}
	if got := judge(p, map[string]float64{wlDeadline: 5, wlCourse: 1, wlIterate: 2}); got != "holds" {
		t.Errorf("got %s, want holds", got)
	}
	if got := judge(p, map[string]float64{wlDeadline: 5, wlCourse: 6, wlIterate: 2}); got != "fails" {
		t.Errorf("got %s, want fails", got)
	}
	if got := judge(p, map[string]float64{wlDeadline: 5}); got != "incomplete" {
		t.Errorf("got %s, want incomplete", got)
	}
	every := prediction{}
	if got := judge(every, map[string]float64{wlDeadline: 1, wlCourse: 1, wlIterate: 0}); got != "fails" {
		t.Errorf("got %s, want fails", got)
	}
}
