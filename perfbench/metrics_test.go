package main

import (
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

const scrapeStart = `# TYPE rai_worker_jobs_total counter
rai_worker_jobs_total{status="succeeded"} 10
rai_worker_jobs_total{status="failed"} 2
rai_docstore_request_seconds_sum{verb="find"} 0.5
rai_docstore_request_seconds_count{verb="find"} 100
rai_docstore_request_seconds_sum{verb="upsert"} 1
rai_docstore_request_seconds_count{verb="upsert"} 10
rai_telemetry_shipped_total{kind="span"} 40
rai_telemetry_shipped_total{kind="event"} 7
`

const scrapeEnd = `# TYPE rai_worker_jobs_total counter
rai_worker_jobs_total{status="succeeded"} 25
rai_worker_jobs_total{status="failed"} 3
rai_worker_jobs_total{status="rejected"} 1
rai_docstore_request_seconds_sum{verb="find"} 2.5
rai_docstore_request_seconds_count{verb="find"} 200
rai_docstore_request_seconds_sum{verb="upsert"} 1
rai_docstore_request_seconds_count{verb="upsert"} 10
rai_telemetry_shipped_total{kind="span"} 100
rai_telemetry_shipped_total{kind="event"} 9
`

func mustSeries(t *testing.T, text string) series {
	t.Helper()
	s, err := parseSeries(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWindowDeltas(t *testing.T) {
	d := mustSeries(t, scrapeEnd).sub(mustSeries(t, scrapeStart))
	if got := d.sum("rai_worker_jobs_total"); got != 17 {
		t.Errorf("jobs delta = %v, want 17 (15 + 1 + a series born in the window)", got)
	}
	if got := d.sum("rai_worker_jobs_total", "status", "failed"); got != 1 {
		t.Errorf("failed delta = %v, want 1", got)
	}
	// 2 s over 100 finds in the window: 20 ms each, not the since-boot
	// mean of 12.5 ms.
	if got := d.meanMs("rai_docstore_request_seconds", "verb", "find"); math.Abs(got-20) > 1e-9 {
		t.Errorf("find mean = %v ms, want 20", got)
	}
	if got := d.meanMs("rai_docstore_request_seconds", "verb", "upsert"); got != 0 {
		t.Errorf("upsert mean with no observations in the window = %v, want 0", got)
	}
	if got := d.sum("rai_telemetry_shipped_total", "kind", "span"); got != 60 {
		t.Errorf("span delta = %v, want 60", got)
	}
	if got := d.ratio("rai_worker_jobs_total", "rai_docstore_request_seconds_count"); math.Abs(got-17.0/117) > 1e-12 {
		t.Errorf("ratio = %v", got)
	}
}

func TestLabelMatchIsExact(t *testing.T) {
	s := mustSeries(t, `x_total{kind="span",subkind="event"} 5
x_total{kind="event"} 2
`)
	if got := s.sum("x_total", "kind", "event"); got != 2 {
		t.Errorf("kind=event sum = %v, want 2 (subkind must not match)", got)
	}
}

func TestParseProcStat(t *testing.T) {
	// The command name holds a space and a parenthesis; utime 1234 and
	// stime 56 are fields 14 and 15.
	stat := "4242 (rai worker) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 1234 56 0 0 20 0 12 0 100 800000000 5000 18446744073709551615\n"
	ticks, err := parseProcStat([]byte(stat))
	if err != nil {
		t.Fatal(err)
	}
	if ticks != 1290 {
		t.Errorf("ticks = %d, want 1290", ticks)
	}
	if got := time.Duration(ticks) * time.Second / clockTicks; got != 12900*time.Millisecond {
		t.Errorf("cpu = %v", got)
	}
	if _, err := parseProcStat([]byte("4242 (short) S 1 2")); err == nil {
		t.Error("truncated stat parsed without error")
	}
}

func TestParseRSS(t *testing.T) {
	status := "Name:\traidb\nVmPeak:\t  900000 kB\nVmHWM:\t  500000 kB\nVmRSS:\t  123456 kB\nThreads:\t9\n"
	rss, err := parseRSS([]byte(status))
	if err != nil {
		t.Fatal(err)
	}
	if rss != 123456*1024 {
		t.Errorf("rss = %d, want VmRSS in bytes, not the lifetime peak", rss)
	}
	if _, err := parseRSS([]byte("Name:\tzombie\n")); err == nil {
		t.Error("status without VmRSS parsed without error")
	}
}

func TestProcSamplesOfThisProcess(t *testing.T) {
	pids := map[string]int{"self": os.Getpid()}
	cpu, err := cpuAll(pids)
	if err != nil {
		t.Fatal(err)
	}
	if cpu["self"] < 0 {
		t.Errorf("cpu = %v", cpu["self"])
	}
	s := startRSSSampler(pids, time.Millisecond)
	time.Sleep(5 * time.Millisecond)
	if peak := s.finish()["self"]; peak < 1<<20 {
		t.Errorf("peak rss = %d bytes, implausibly small", peak)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-3.7) > 1e-12 {
		t.Errorf("p90 = %v, want 3.7", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}
