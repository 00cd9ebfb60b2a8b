// Command perfbench is the repository's end-to-end benchmark. It boots
// the real daemons (raibroker, raifs, raidb, raiworker and the raiadmin
// collector) over loopback, drives them with simulated students in a
// saturating closed loop, checks every outcome against a known answer,
// and prints one JSON result line.
//
//	perfbench -bin DIR -work DIR --workload course --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with
// --trace 1 it holds the per-layer split instead. run.sh builds the
// binaries and invokes it; see README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"rai/internal/auth"
	"rai/internal/clock"
	"rai/internal/docstore"
)

// clk is the benchmark's time source: it drives real daemons, so it
// runs on the wall clock.
var clk clock.Clock = clock.Real{}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	binDir   string
	workDir  string
}

// setupRounds is how many times a run boots the cluster; setup_s is the
// median, and the last cluster serves the timed window.
const setupRounds = 3

// students is the number of simulated students, and the worker's job
// slots: one per CPU, so the closed loop keeps the machine busy.
var students = runtime.NumCPU()

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: course, iterate or deadline")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed: student plans, edits and preloaded state")
	fs.IntVar(&o.seconds, "seconds", 20, "length of the timed window")
	fs.IntVar(&trace, "trace", 0, "1 = report the per-layer split instead of the end-to-end metrics")
	fs.StringVar(&o.binDir, "bin", "", "directory holding the daemon binaries")
	fs.StringVar(&o.workDir, "work", "", "scratch directory for run state, logs and reports")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if !slices.Contains(workloadNames, o.workload) || o.binDir == "" || o.workDir == "" ||
		o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need -bin, -work, --workload course|iterate|deadline, --seconds >= 1 and --trace 0|1")
		return 2
	}
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()
	res, err := bench(ctx, o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setupRun is one booted cluster with its students warmed up.
type setupRun struct {
	c        *cluster
	students []*student
	warmups  []jobRecord
}

func (s *setupRun) close() {
	for _, st := range s.students {
		st.close()
	}
	s.c.stop()
}

// bench runs one workload end to end: inputs, set-up, timed window,
// checks, report.
func bench(ctx context.Context, o options, logw io.Writer) (*result, error) {
	dir := filepath.Join(o.workDir, fmt.Sprintf("%s-seed%d-trace%t-%d", o.workload, o.seed, o.trace, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf := func(format string, args ...any) { fmt.Fprintf(logw, "perfbench: "+format+"\n", args...) }
	// The journals are large and replayable from the seed; only logs and
	// reports outlive the run.
	defer func() {
		journals, _ := filepath.Glob(filepath.Join(dir, "*", preloadJournalSubdir))
		for _, j := range journals {
			_ = os.RemoveAll(j) // best effort: the result is already decided
		}
	}()
	var rec *recorder
	if o.trace {
		rec = &recorder{}
	}

	// Inputs, all derived from the seed.
	creds := studentCreds(o.seed, students)
	orc, err := newOracle(datasetSeed, fullImages)
	if err != nil {
		return nil, err
	}
	in := inputs{Workload: o.workload, Seed: o.seed, Students: students, Seconds: o.seconds}
	var template string
	if o.workload == wlDeadline {
		template = filepath.Join(dir, "preload", preloadJournalSubdir, preloadJournalFile)
		if err := os.MkdirAll(filepath.Dir(template), 0o755); err != nil {
			return nil, err
		}
		t0 := clk.Now()
		sizes, err := writePreload(template, o.seed)
		if err != nil {
			return nil, fmt.Errorf("writing preload: %w", err)
		}
		rec.add(span{Name: "preload", Start: t0, End: clk.Now()})
		in.Preload = sizes
		logf("preloaded %d jobs, %d spans, %d events in %s", sizes.Jobs, sizes.Traces, sizes.Events, clk.Now().Sub(t0).Round(time.Millisecond))
	}
	// Plans are rebuilt for every boot: an iterate project tree is edited
	// in place as the student works.
	plansFor := func() ([]plan, error) {
		switch o.workload {
		case wlIterate:
			return iteratePlans(o.seed, creds)
		case wlDeadline:
			return coursePlans(o.seed, creds, true), nil
		default:
			return coursePlans(o.seed, creds, false), nil
		}
	}

	// Set-up, several times: boot, replay, connect and warm up. All but
	// the last cluster are torn down again.
	var all []jobRecord
	var setups []float64
	var live *setupRun
	defer func() {
		if live != nil {
			live.close()
		}
	}()
	for i := 0; i < setupRounds; i++ {
		plans, err := plansFor()
		if err != nil {
			return nil, err
		}
		bootDir := filepath.Join(dir, fmt.Sprintf("boot%d", i+1))
		t0 := clk.Now()
		s, err := setUp(ctx, o, bootDir, template, plans, creds, rec, orc)
		if err != nil {
			return nil, err
		}
		setups = append(setups, clk.Now().Sub(t0).Seconds())
		all = append(all, s.warmups...)
		if i < setupRounds-1 {
			s.close()
		} else {
			live = s
		}
	}
	logf("set-up %v s (median of %d)", roundAll(setups), len(setups))

	w, err := runWindow(ctx, live, time.Duration(o.seconds)*time.Second, rec)
	if err != nil {
		return nil, err
	}
	all = append(all, w.all...)
	if err := live.c.alive(); err != nil {
		return nil, err
	}
	logf("window: %d jobs in %.2fs (%d submissions in the run)", len(w.jobs), w.seconds(), len(all))

	var layers map[string]metric
	if o.trace {
		layers, err = traceLayers(ctx, live, w, rec)
		if err != nil {
			return nil, err
		}
	}
	live.close()
	live = nil

	res := &result{Attempted: len(all), Metrics: map[string]metric{}}
	for _, r := range all {
		if len(r.problems) > 0 {
			res.Failed++
			if res.Failed <= 10 {
				logf("MISMATCH job %s (%s, %s, bug %q): %v", r.jobID, r.sub.kind, r.sub.turn, r.sub.spec.Bug, r.problems)
			}
		}
	}
	res.Correct = res.Failed == 0 && len(w.jobs) > 0
	if len(w.jobs) == 0 {
		logf("no job completed inside the timed window")
	}
	e2e := endToEnd(w, median(setups), res)
	in.BuildcacheHitShare = w.delta["raiworker"].ratio("rai_buildcache_hits_total", "rai_buildcache_misses_total")
	in.ChunkReuseShare = chunkReuse(w.jobs)
	if o.trace {
		res.Metrics = layers
	} else {
		res.Metrics = e2e
	}
	rep := report{Inputs: in, EndToEnd: e2e, PerLayer: layers, Setups: setups}
	if o.trace {
		if rep.Predictions, err = checkPredictions(filepath.Join(o.workDir, "reports"), o.workload, layers); err != nil {
			return nil, err
		}
		for _, p := range rep.Predictions {
			logf("prediction %-32s on %-8s: %s", p.Metric, p.Heavy, p.Verdict)
		}
		if err := writeJSON(filepath.Join(dir, "spans.json"), rec.spans); err != nil {
			return nil, err
		}
	}
	inLine, _ := json.Marshal(in)
	logf("inputs %s", inLine)
	if err := writeJSON(filepath.Join(dir, "report.json"), rep); err != nil {
		return nil, err
	}
	return res, nil
}

// setUp boots one cluster, connects the students and runs one warm-up
// submission per student, so first connections and lazy
// initialization stay out of the timed window.
func setUp(ctx context.Context, o options, dir, template string, plans []plan, creds []auth.Credentials, rec *recorder, orc *oracle) (*setupRun, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cfg := clusterConfig{binDir: o.binDir, dir: dir, slots: students}
	if template != "" {
		jdir := filepath.Join(dir, preloadJournalSubdir)
		if err := copyTree(filepath.Dir(template), jdir); err != nil {
			return nil, err
		}
		cfg.journal = filepath.Join(jdir, preloadJournalFile)
	}
	c, err := startCluster(ctx, cfg, creds)
	if err != nil {
		return nil, err
	}
	s := &setupRun{c: c}
	for _, p := range plans {
		st, err := newStudent(ctx, c, p, rec, orc)
		if err != nil {
			s.close()
			return nil, err
		}
		s.students = append(s.students, st)
	}
	s.warmups = make([]jobRecord, len(s.students))
	var wg sync.WaitGroup
	for i, st := range s.students {
		wg.Add(1)
		go func(i int, st *student) {
			defer wg.Done()
			s.warmups[i] = st.submitNext(ctx)
		}(i, st)
	}
	wg.Wait()
	return s, ctx.Err()
}

// window is what one timed window measured.
type window struct {
	from, to time.Time
	jobs     []jobRecord // completed inside [from, to]
	all      []jobRecord // every submission started in the window
	delta    map[string]series
	cpu      map[string]time.Duration
	rssPeak  map[string]uint64
	depthMax float64
	// lagSpans is spans shipped but not yet persisted at the window end.
	lagSpans float64
	// own tracing on/off, by job, for the overhead comparison.
	tracedJobs, untracedJobs []jobRecord
	tracedSecs, untracedSecs float64
}

func (w *window) seconds() float64 { return w.to.Sub(w.from).Seconds() }

// traceSlice is the period of the traced run's alternation between
// recording the benchmark's own spans and not, which measures what the
// recording costs.
const traceSlice = time.Second

// runWindow releases the students at once, lets them submit until the
// window closes, and samples every daemon and process at both edges.
func runWindow(ctx context.Context, s *setupRun, d time.Duration, rec *recorder) (*window, error) {
	pids := procSet(s.c)
	w := &window{}
	start, err := scrapeAll(ctx, s.c)
	if err != nil {
		return nil, err
	}
	cpu0, err := cpuAll(pids)
	if err != nil {
		return nil, err
	}
	rss := startRSSSampler(pids, 100*time.Millisecond)
	depthDone := make(chan struct{})
	var depthWG sync.WaitGroup
	if rec != nil {
		depthWG.Add(1)
		go func() {
			defer depthWG.Done()
			w.depthMax = sampleDepth(ctx, s.c, depthDone)
		}()
	}
	w.from = clk.Now()
	w.to = w.from.Add(d)
	// In a traced run the students record their own spans only in every
	// other slice; tracedAt tells which.
	tracedAt := func(t time.Time) bool {
		return rec != nil && int(t.Sub(w.from)/traceSlice)%2 == 0
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, st := range s.students {
		wg.Add(1)
		go func(st *student) {
			defer wg.Done()
			for clk.Now().Before(w.to) && ctx.Err() == nil {
				on := tracedAt(clk.Now())
				if on {
					st.rec = rec
				} else {
					st.rec = nil
				}
				r := st.submitNext(ctx)
				mu.Lock()
				w.all = append(w.all, r)
				if !r.end.After(w.to) {
					w.jobs = append(w.jobs, r)
					if rec != nil && on {
						w.tracedJobs = append(w.tracedJobs, r)
					} else if rec != nil {
						w.untracedJobs = append(w.untracedJobs, r)
					}
				}
				mu.Unlock()
			}
			st.rec = rec
		}(st)
	}
	// Sample the window's far edge at once; the students finish the
	// submissions they have in flight meanwhile.
	select {
	case <-clk.After(w.to.Sub(clk.Now())):
	case <-ctx.Done():
	}
	end, err := scrapeAll(ctx, s.c)
	var cpu1 map[string]time.Duration
	if err == nil {
		cpu1, err = cpuAll(pids)
		w.lagSpans = shippedSpans(end, s.students) - end["collector"].sum("rai_collector_spans_total")
	}
	w.rssPeak = rss.finish()
	close(depthDone)
	depthWG.Wait()
	wg.Wait()
	if err != nil {
		return nil, err
	}
	w.delta = subAll(end, start)
	w.cpu = map[string]time.Duration{}
	for name, t := range cpu1 {
		w.cpu[name] = t - cpu0[name]
	}
	for i, t := 0, time.Duration(0); t < d; i, t = i+1, t+traceSlice {
		slice := min(traceSlice, d-t).Seconds()
		if i%2 == 0 {
			w.tracedSecs += slice
		} else {
			w.untracedSecs += slice
		}
	}
	return w, ctx.Err()
}

// shippedSpans totals the spans every process has handed to the
// broker: each daemon's exporter counter plus the students' exporters.
func shippedSpans(scrapes map[string]series, students []*student) float64 {
	var total float64
	for _, s := range scrapes {
		total += s.sum("rai_telemetry_shipped_total", "kind", "span")
	}
	for _, st := range students {
		n, _ := st.exp.Shipped()
		total += float64(n)
	}
	return total
}

// sampleDepth polls the broker's queue depth until done, returning the
// largest total seen.
func sampleDepth(ctx context.Context, c *cluster, done <-chan struct{}) float64 {
	var max float64
	for {
		if s, err := scrape(ctx, c.daemons[0].metricsURL); err == nil {
			if d := s.sum("rai_broker_queue_depth"); d > max {
				max = d
			}
		}
		select {
		case <-done:
			return max
		case <-ctx.Done():
			return max
		case <-clk.After(250 * time.Millisecond):
		}
	}
}

// drainBound caps the traced run's wait for the collector to persist
// the window's spans.
const drainBound = 20 * time.Second

// drainCollector waits, within drainBound, until every shipped span is
// persisted and no process has shipped anything new for a second.
func drainCollector(ctx context.Context, s *setupRun) (lag float64, waited time.Duration) {
	for _, st := range s.students {
		st.exp.Flush()
	}
	t0 := clk.Now()
	lastShipped, stableSince := -1.0, clk.Now()
	for {
		scrapes, err := scrapeAll(ctx, s.c)
		if err == nil {
			shipped := shippedSpans(scrapes, s.students)
			lag = shipped - scrapes["collector"].sum("rai_collector_spans_total")
			if shipped != lastShipped {
				lastShipped, stableSince = shipped, clk.Now()
			}
			if lag <= 0 && clk.Now().Sub(stableSince) >= time.Second {
				return lag, clk.Now().Sub(t0)
			}
		}
		if clk.Now().Sub(t0) >= drainBound || ctx.Err() != nil {
			return lag, clk.Now().Sub(t0)
		}
		clk.Sleep(200 * time.Millisecond)
	}
}

// traceLayers produces the per-layer split for a traced run: window
// deltas, process samples, the benchmark's own spans and the program's
// spans read back from the collector.
func traceLayers(ctx context.Context, s *setupRun, w *window, rec *recorder) (map[string]metric, error) {
	lag, waited := drainCollector(ctx, s)
	db := docstore.NewClient(s.c.dbURL)
	jobs := map[string]bool{}
	for _, r := range w.jobs {
		jobs[r.jobID] = true
	}
	docs, err := db.FindContext(ctx, "traces", docstore.M{"start_s": docstore.M{"$gte": float64(w.from.UnixNano())/1e9 - 1}}, docstore.FindOpts{})
	if err != nil {
		return nil, fmt.Errorf("reading spans back: %w", err)
	}
	att := attribute(docs, jobs)
	sizes := map[string]float64{}
	for _, coll := range []string{"jobs", "traces", "events"} {
		n, err := db.CountContext(ctx, coll, docstore.M{})
		if err != nil {
			return nil, err
		}
		sizes[coll] = float64(n)
	}
	m := perLayer(w, rec, att, sizes)
	m["collector.drain_s"] = metric{waited.Seconds(), "s"}
	m["collector.unpersisted_after_drain"] = metric{lag, "count"}
	return m, nil
}

// inputs records what a run was fed, so a later change that helps only
// repeated or unchanged inputs can point to each workload's share.
type inputs struct {
	Workload           string       `json:"workload"`
	Seed               uint64       `json:"seed"`
	Students           int          `json:"students"`
	Seconds            int          `json:"seconds"`
	Preload            preloadSizes `json:"preload"`
	BuildcacheHitShare float64      `json:"buildcache_hit_share"`
	ChunkReuseShare    float64      `json:"chunk_reuse_share"`
}

// report is the run's full record, written next to its logs.
type report struct {
	Inputs      inputs            `json:"inputs"`
	Setups      []float64         `json:"setup_s"`
	EndToEnd    map[string]metric `json:"end_to_end"`
	PerLayer    map[string]metric `json:"per_layer,omitempty"`
	Predictions []verdict         `json:"predictions,omitempty"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile interpolates linearly between closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int(x*1000+0.5)) / 1000
	}
	return out
}
