package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// daemonNames are the processes of the system under test; the load
// generator is accounted separately.
var daemonNames = []string{"raibroker", "raifs", "raidb", "raiworker", "collector"}

const mib = 1 << 20

// endToEnd computes what a student and the machine's owner see: the
// nine metrics of a run, over the timed window.
func endToEnd(w *window, setup float64, res *result) map[string]metric {
	n := float64(max(len(w.jobs), 1))
	lat := latencies(w.jobs)
	var cpu time.Duration
	for _, t := range w.cpu {
		cpu += t
	}
	var up, down float64
	for _, r := range w.jobs {
		up += float64(r.uploadBytes)
		down += float64(r.downloadBytes)
	}
	var rss float64
	for _, name := range daemonNames {
		rss += float64(w.rssPeak[name]) / mib
	}
	return map[string]metric{
		"jobs_per_s":             {float64(len(w.jobs)) / w.seconds(), "jobs/s"},
		"latency_p50_s":          {quantile(lat, 0.5), "s"},
		"latency_p90_s":          {quantile(lat, 0.9), "s"},
		"cpu_ms_per_job":         {ms(cpu) / n, "ms"},
		"upload_bytes_per_job":   {up / n, "B"},
		"download_bytes_per_job": {down / n, "B"},
		"daemon_rss_mb":          {rss, "MiB"},
		"correct_share":          {1 - float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio"},
		"setup_s":                {setup, "s"},
	}
}

// latencies are the student-observed submit-to-End times in seconds.
func latencies(jobs []jobRecord) []float64 {
	out := make([]float64, len(jobs))
	for i, r := range jobs {
		out[i] = r.end.Sub(r.start).Seconds()
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/(a+b) over two counter families, 0 when both are zero.
func (s series) ratio(a, b string) float64 {
	x, y := s.sum(a), s.sum(b)
	if x+y == 0 {
		return 0
	}
	return x / (x + y)
}

// chunkReuse is the share of manifest chunks the server already held,
// over the window's delta submissions (0 on the archive path).
func chunkReuse(jobs []jobRecord) float64 {
	var total, sent int
	for _, r := range jobs {
		total += r.chunksTotal
		sent += r.chunksSent
	}
	if total == 0 {
		return 0
	}
	return float64(total-sent) / float64(total)
}

// perLayer computes the traced run's layer split. Counters are deltas
// over the window; latencies are the mean of the window's histogram
// delta; the phase split comes from the program's own spans.
func perLayer(w *window, rec *recorder, att attribution, docs map[string]float64) map[string]metric {
	n := float64(max(len(w.jobs), 1))
	d := w.delta
	fs, db, br, wk, col := d["raifs"], d["raidb"], d["raibroker"], d["raiworker"], d["collector"]
	m := map[string]metric{
		"client.pack_ms":        {rec.meanMs("pack", w.from, w.to), "ms"},
		"client.hash_ms":        {rec.meanMs("hash", w.from, w.to), "ms"},
		"client.download_ms":    {rec.meanMs("download", w.from, w.to), "ms"},
		"cas.chunk_reuse_share": {chunkReuse(w.jobs), "ratio"},

		"objstore.put_ms":            {fs.meanMs("rai_objstore_request_seconds", "op", "put"), "ms"},
		"objstore.get_ms":            {fs.meanMs("rai_objstore_request_seconds", "op", "get"), "ms"},
		"objstore.cas_negotiate_ms":  {fs.meanMs("rai_objstore_request_seconds", "op", "cas-negotiate"), "ms"},
		"objstore.cas_chunks_ms":     {fs.meanMs("rai_objstore_request_seconds", "op", "cas-chunks"), "ms"},
		"objstore.requests_per_job":  {fs.sum("rai_objstore_requests_total") / n, "count"},
		"objstore.bytes_in_per_job":  {fs.sum("rai_objstore_bytes_total", "direction", "in") / n, "B"},
		"objstore.bytes_out_per_job": {fs.sum("rai_objstore_bytes_total", "direction", "out") / n, "B"},

		"cas.materialize_chunks_per_job": {wk.sum("rai_cas_materialize_chunks_total") / n, "count"},
		"cas.materialize_bytes_per_job":  {wk.sum("rai_cas_materialize_bytes_total") / n, "B"},

		"docstore.find_ms":          {db.meanMs("rai_docstore_request_seconds", "verb", "find"), "ms"},
		"docstore.upsert_ms":        {db.meanMs("rai_docstore_request_seconds", "verb", "upsert"), "ms"},
		"docstore.insert_ms":        {db.meanMs("rai_docstore_request_seconds", "verb", "insert"), "ms"},
		"docstore.requests_per_job": {db.sum("rai_docstore_requests_total") / n, "count"},
		"docstore.busy_ms_per_job":  {1000 * db.sum("rai_docstore_request_seconds_sum") / n, "ms"},
		"docstore.docs.jobs":        {docs["jobs"], "count"},
		"docstore.docs.traces":      {docs["traces"], "count"},
		"docstore.docs.events":      {docs["events"], "count"},

		"broker.publishes_per_job": {br.sum("rai_broker_publish_total") / n, "count"},
		"broker.delivery_ms":       {br.meanMs("rai_broker_delivery_latency_seconds"), "ms"},
		"broker.requeues_per_job":  {br.sum("rai_broker_requeue_total") / n, "count"},
		"broker.depth_max":         {w.depthMax, "count"},

		"worker.queue_delay_ms": {wk.meanMs("rai_queue_delay_seconds"), "ms"},
		"worker.cache_ms":       {wk.meanMs("rai_worker_phase_seconds", "phase", "cache"), "ms"},
		"worker.build_ms":       {wk.meanMs("rai_worker_phase_seconds", "phase", "build"), "ms"},
		"worker.run_ms":         {wk.meanMs("rai_worker_phase_seconds", "phase", "run"), "ms"},
		"worker.pull_ms":        {wk.meanMs("rai_worker_phase_seconds", "phase", "pull"), "ms"},
		"buildcache.hit_share":  {wk.ratio("rai_buildcache_hits_total", "rai_buildcache_misses_total"), "ratio"},

		"collector.spans_per_job": {col.sum("rai_collector_spans_total") / n, "count"},
		"collector.lag_spans":     {w.lagSpans, "count"},

		"rpc.retries_per_job": {sumAll(d, "rai_rpc_retries_total") / n, "count"},

		"window.jobs":                {float64(len(w.jobs)), "count"},
		"trace.jobs_per_s":           {float64(len(w.jobs)) / w.seconds(), "jobs/s"},
		"trace.latency_p50_s":        {quantile(latencies(w.jobs), 0.5), "s"},
		"phase.traced_share":         {float64(att.traced) / n, "ratio"},
		"phase.unattributed_ms":      {0, "ms"},
		"phase.coverage":             {0, "ratio"},
		"trace.overhead_jobs_per_s":  {0, "ratio"},
		"trace.overhead_latency_p50": {0, "ratio"},
	}
	for _, name := range append([]string{"loadgen"}, daemonNames...) {
		m["proc."+name+".cpu_ms_per_job"] = metric{ms(w.cpu[name]) / n, "ms"}
		m["proc."+name+".rss_peak_mb"] = metric{float64(w.rssPeak[name]) / mib, "MiB"}
		if s, ok := d[name]; ok {
			m["proc."+name+".gc_cycles"] = metric{s.sum("rai_process_gc_cycles_total"), "count"}
		}
	}
	// Phases: every phase from the traces, except queue wait, which the
	// worker's rai_queue_delay_seconds histogram covers for every job
	// (the trace drops it whenever pickup overlaps the enqueue span).
	var explained float64
	for _, p := range phaseNames {
		v := att.meanMs(p)
		explained += v
		if p == "queue" {
			v = wk.meanMs("rai_queue_delay_seconds")
		}
		m["phase."+p+"_ms"] = metric{v, "ms"}
	}
	if total := att.meanMs("total"); total > 0 {
		m["phase.unattributed_ms"] = metric{total - explained, "ms"}
		m["phase.coverage"] = metric{explained / total, "ratio"}
	}
	// Tracing overhead: the window alternates one-second slices with the
	// benchmark's own span recording on and off.
	on, off := w.tracedJobs, w.untracedJobs
	onRate, offRate := float64(len(on))/w.tracedSecs, float64(len(off))/w.untracedSecs
	onP50, offP50 := quantile(latencies(on), 0.5), quantile(latencies(off), 0.5)
	if offRate > 0 && offP50 > 0 {
		m["trace.overhead_jobs_per_s"] = metric{1 - onRate/offRate, "ratio"}
		m["trace.overhead_latency_p50"] = metric{onP50/offP50 - 1, "ratio"}
	}
	m["failed_share"] = metric{failedShare(w.all), "ratio"}
	return m
}

func failedShare(jobs []jobRecord) float64 {
	if len(jobs) == 0 {
		return 0
	}
	bad := 0
	for _, r := range jobs {
		if len(r.problems) > 0 {
			bad++
		}
	}
	return float64(bad) / float64(len(jobs))
}

func sumAll(d map[string]series, family string) float64 {
	var t float64
	for _, s := range d {
		t += s.sum(family)
	}
	return t
}

// prediction says where a layer does most of its work: the end-to-end
// metrics a change to it should move, the workload where it is
// heaviest, and the workloads where it should stay flat.
type prediction struct {
	metrics []string
	moves   []string
	heavy   string   // "" = every workload (checked as nonzero on each)
	flat    []string // workloads where the layer metric must be lower
}

var predictions = []prediction{
	{[]string{"docstore.find_ms", "docstore.upsert_ms", "docstore.insert_ms", "docstore.busy_ms_per_job", "proc.raidb.cpu_ms_per_job", "collector.lag_spans"},
		[]string{"jobs_per_s", "latency_p50_s", "cpu_ms_per_job"}, wlDeadline, []string{wlCourse, wlIterate}},
	{[]string{"client.pack_ms", "objstore.put_ms", "objstore.get_ms", "proc.raiworker.cpu_ms_per_job"},
		[]string{"latency_p50_s", "cpu_ms_per_job", "upload_bytes_per_job", "download_bytes_per_job"}, wlCourse, []string{wlIterate}},
	{[]string{"client.hash_ms", "cas.chunk_reuse_share", "objstore.cas_negotiate_ms", "objstore.cas_chunks_ms", "cas.materialize_chunks_per_job", "cas.materialize_bytes_per_job"},
		[]string{"upload_bytes_per_job", "latency_p50_s"}, wlIterate, []string{wlCourse, wlDeadline}},
	{[]string{"buildcache.hit_share", "worker.cache_ms"},
		[]string{"latency_p50_s", "jobs_per_s"}, wlIterate, []string{wlCourse, wlDeadline}},
	{[]string{"worker.run_ms", "worker.build_ms"},
		[]string{"jobs_per_s", "cpu_ms_per_job"}, wlCourse, []string{wlIterate}},
	{[]string{"broker.publishes_per_job", "broker.delivery_ms", "worker.queue_delay_ms", "proc.raibroker.cpu_ms_per_job"},
		[]string{"latency_p50_s"}, "", nil},
	{[]string{"proc.raidb.rss_peak_mb"},
		[]string{"daemon_rss_mb"}, wlDeadline, []string{wlCourse, wlIterate}},
}

// verdict is one checked prediction.
type verdict struct {
	Metric  string             `json:"metric"`
	Moves   []string           `json:"moves"`
	Heavy   string             `json:"heavy"`
	Flat    []string           `json:"flat,omitempty"`
	Values  map[string]float64 `json:"values"`
	Verdict string             `json:"verdict"` // holds, fails, or incomplete
}

// checkPredictions stores this traced run's layer metrics under dir
// (one file per workload, the latest run winning) and checks every
// prediction against the workloads recorded so far.
func checkPredictions(dir, workload string, layers map[string]metric) ([]verdict, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := writeJSON(filepath.Join(dir, workload+".json"), layers); err != nil {
		return nil, err
	}
	byWorkload := map[string]map[string]metric{}
	for _, wl := range workloadNames {
		data, err := os.ReadFile(filepath.Join(dir, wl+".json"))
		if err != nil {
			continue
		}
		var m map[string]metric
		if json.Unmarshal(data, &m) == nil {
			byWorkload[wl] = m
		}
	}
	var out []verdict
	for _, p := range predictions {
		for _, name := range p.metrics {
			v := verdict{Metric: name, Moves: p.moves, Heavy: p.heavy, Flat: p.flat, Values: map[string]float64{}}
			for wl, m := range byWorkload {
				if x, ok := m[name]; ok {
					v.Values[wl] = x.Value
				}
			}
			v.Verdict = judge(p, v.Values)
			if v.Heavy == "" {
				v.Heavy = "every"
			}
			out = append(out, v)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Heavy < out[j].Heavy })
	return out, nil
}

func judge(p prediction, values map[string]float64) string {
	if p.heavy == "" {
		for _, wl := range workloadNames {
			x, ok := values[wl]
			if !ok {
				return "incomplete"
			}
			if x <= 0 {
				return "fails"
			}
		}
		return "holds"
	}
	h, ok := values[p.heavy]
	if !ok {
		return "incomplete"
	}
	for _, wl := range p.flat {
		x, ok := values[wl]
		if !ok {
			return "incomplete"
		}
		if x >= h {
			return "fails"
		}
	}
	return "holds"
}
