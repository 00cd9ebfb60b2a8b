package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rai/internal/telemetry"
)

// series is one scrape of a /metrics endpoint: every sample keyed by
// its name and sorted label set, e.g. `rai_worker_jobs_total{status="failed"}`.
type series map[string]float64

// seriesKey renders a sample's identity the way the exposition format
// prints it, with labels sorted.
func seriesKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// parseSeries parses a Prometheus text document.
func parseSeries(r io.Reader) (series, error) {
	snap, err := telemetry.ParseText(r)
	if err != nil {
		return nil, err
	}
	s := series{}
	for _, smp := range snap.Samples {
		s[seriesKey(smp.Name, smp.Labels)] = smp.Value
	}
	return s, nil
}

// sub returns the per-series difference end − start: the counter and
// histogram deltas over a window. Series missing at the start count
// from zero.
func (end series) sub(start series) series {
	d := series{}
	for k, v := range end {
		d[k] = v - start[k]
	}
	return d
}

// sum totals every series of the family name whose labels include all
// of the given name=value pairs (pass none to sum the whole family).
func (s series) sum(name string, labels ...string) float64 {
	var total float64
	for k, v := range s {
		if seriesName(k) != name {
			continue
		}
		match := true
		for i := 0; i+1 < len(labels); i += 2 {
			pair := fmt.Sprintf("%s=%q", labels[i], labels[i+1])
			if !strings.Contains(k, "{"+pair) && !strings.Contains(k, ","+pair) {
				match = false
				break
			}
		}
		if match {
			total += v
		}
	}
	return total
}

func seriesName(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// meanMs is the mean observation of a histogram family (restricted to
// the label pairs), in milliseconds: sum delta over count delta. Zero
// when the window saw no observation.
func (s series) meanMs(family string, labels ...string) float64 {
	n := s.sum(family+"_count", labels...)
	if n <= 0 {
		return 0
	}
	return 1000 * s.sum(family+"_sum", labels...) / n
}

var scrapeClient = &http.Client{Timeout: 10 * time.Second}

// scrape fetches and parses one /metrics endpoint.
func scrape(ctx context.Context, url string) (series, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := scrapeClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: %s", url, resp.Status)
	}
	return parseSeries(resp.Body)
}

// scrapeAll fetches every daemon's /metrics, keyed by daemon name.
func scrapeAll(ctx context.Context, c *cluster) (map[string]series, error) {
	out := map[string]series{}
	for _, d := range c.daemons {
		s, err := scrape(ctx, d.metricsURL)
		if err != nil {
			return nil, err
		}
		out[d.name] = s
	}
	return out, nil
}

// subAll is sub applied per daemon.
func subAll(end, start map[string]series) map[string]series {
	d := map[string]series{}
	for name, s := range end {
		d[name] = s.sub(start[name])
	}
	return d
}

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat
// (100 on every Linux architecture the Go toolchain targets).
const clockTicks = 100

// parseProcStat returns utime+stime, in clock ticks, from the contents
// of /proc/<pid>/stat. The command name may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseProcStat(data []byte) (uint64, error) {
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed stat: no ')'")
	}
	f := strings.Fields(string(data[i+1:]))
	// After ')' come field 3 (state) onward; utime and stime are fields
	// 14 and 15, i.e. f[11] and f[12].
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed stat: %d fields", len(f))
	}
	u, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, err
	}
	s, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, err
	}
	return u + s, nil
}

// parseRSS returns VmRSS in bytes from the contents of
// /proc/<pid>/status.
func parseRSS(data []byte) (uint64, error) {
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmRSS:") {
			continue
		}
		f := strings.Fields(line[len("VmRSS:"):])
		if len(f) < 1 {
			break
		}
		kb, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		return kb * 1024, nil
	}
	return 0, fmt.Errorf("no VmRSS line")
}

// procCPU reads a process's accumulated CPU time.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	ticks, err := parseProcStat(data)
	if err != nil {
		return 0, err
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// procRSS reads a process's current resident set in bytes.
func procRSS(pid int) (uint64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseRSS(data)
}

// procSet names the processes a run accounts for: every daemon plus
// the load generator (this process).
func procSet(c *cluster) map[string]int {
	pids := map[string]int{"loadgen": os.Getpid()}
	for _, d := range c.daemons {
		pids[d.name] = d.pid
	}
	return pids
}

// cpuAll samples every process's CPU time.
func cpuAll(pids map[string]int) (map[string]time.Duration, error) {
	out := map[string]time.Duration{}
	for name, pid := range pids {
		t, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		out[name] = t
	}
	return out, nil
}

// rssSampler tracks each process's peak resident set over a window by
// polling /proc, since VmHWM would also include boot and preload.
type rssSampler struct {
	mu   sync.Mutex
	peak map[string]uint64
	stop chan struct{}
	done chan struct{}
}

func startRSSSampler(pids map[string]int, every time.Duration) *rssSampler {
	s := &rssSampler{peak: map[string]uint64{}, stop: make(chan struct{}), done: make(chan struct{})}
	sample := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		for name, pid := range pids {
			if rss, err := procRSS(pid); err == nil && rss > s.peak[name] {
				s.peak[name] = rss
			}
		}
	}
	sample()
	go func() {
		defer close(s.done)
		for {
			select {
			case <-s.stop:
				sample()
				return
			case <-clk.After(every):
				sample()
			}
		}
	}()
	return s
}

// finish stops sampling and returns the peaks in bytes.
func (s *rssSampler) finish() map[string]uint64 {
	close(s.stop)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peak
}
