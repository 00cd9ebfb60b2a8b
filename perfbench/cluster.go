package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"rai/internal/auth"
	"rai/internal/readyfile"
)

// Fixed worker dataset: the seed and image count of the course /data
// volume stay the same in every run, so the workload seed changes only
// what students submit and what state is preloaded.
const (
	datasetSeed = 408
	fullImages  = 12
)

// daemon is one child process of the cluster under test.
type daemon struct {
	name       string // raibroker, raifs, raidb, raiworker, collector
	pid        int
	addr       string
	metricsURL string
	logPath    string
	cmd        *exec.Cmd
	done       chan struct{}
}

// cluster is a loopback RAI deployment: broker, file server, document
// store, one worker with a job slot per student, and the telemetry
// collector.
type cluster struct {
	daemons    []*daemon
	brokerAddr string
	fsURL      string
	dbURL      string
}

type clusterConfig struct {
	binDir string
	dir    string // run directory: ready files, logs, keys.json
	slots  int    // worker job slots
	// journal, when set, boots raidb on this disk journal (replayed on
	// start); empty keeps the document store in memory.
	journal string
}

// startCluster boots the daemons in dependency order and waits for each
// one's ready file. On error every started child is stopped.
func startCluster(ctx context.Context, cfg clusterConfig, creds []auth.Credentials) (*cluster, error) {
	c := &cluster{}
	ok := false
	defer func() {
		if !ok {
			c.stop()
		}
	}()
	keysPath := filepath.Join(cfg.dir, "keys.json")
	keys, err := json.Marshal(creds)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(keysPath, keys, 0o600); err != nil {
		return nil, err
	}
	boot := func(name, bin string, args ...string) (*daemon, error) {
		ready := filepath.Join(cfg.dir, name+".ready")
		args = append(args, "-metrics-addr", "127.0.0.1:0", "-ready-file", ready)
		d, err := spawn(name, filepath.Join(cfg.binDir, bin), args, cfg.dir)
		if err != nil {
			return nil, err
		}
		c.daemons = append(c.daemons, d)
		waitCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
		defer cancel()
		info, err := readyfile.Await(waitCtx, clk, ready, 0, d.done)
		if err != nil {
			return nil, fmt.Errorf("%s not ready: %w (see %s)", name, err, d.logPath)
		}
		d.pid, d.addr = info.PID, info.Addr
		d.metricsURL = "http://" + info.MetricsAddr + "/metrics"
		return d, nil
	}

	b, err := boot("raibroker", "raibroker", "-listen", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c.brokerAddr = b.addr
	fs, err := boot("raifs", "raifs", "-listen", "127.0.0.1:0", "-broker", c.brokerAddr)
	if err != nil {
		return nil, err
	}
	c.fsURL = "http://" + fs.addr
	dbArgs := []string{"-listen", "127.0.0.1:0", "-broker", c.brokerAddr}
	if cfg.journal != "" {
		dbArgs = append(dbArgs, "-journal", cfg.journal)
	}
	db, err := boot("raidb", "raidb", dbArgs...)
	if err != nil {
		return nil, err
	}
	c.dbURL = "http://" + db.addr
	if _, err := boot("raiworker", "raiworker",
		"-broker", c.brokerAddr, "-fs", c.fsURL, "-db", c.dbURL,
		"-keys", keysPath, "-id", "raiworker-1",
		"-concurrency", fmt.Sprint(cfg.slots),
		"-rate-limit", "1ms",
		"-seed", fmt.Sprint(datasetSeed),
		"-full-images", fmt.Sprint(fullImages)); err != nil {
		return nil, err
	}
	if _, err := boot("collector", "raiadmin", "collect",
		"-broker", c.brokerAddr, "-db", c.dbURL); err != nil {
		return nil, err
	}
	ok = true
	return c, nil
}

// spawn starts one daemon with its output in <dir>/<name>.log. The
// child is killed if the benchmark itself dies.
func spawn(name, bin string, args []string, dir string) (*daemon, error) {
	logPath := filepath.Join(dir, name+".log")
	f, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = f, f
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		_ = f.Close() // nothing was written
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	d := &daemon{name: name, pid: cmd.Process.Pid, logPath: logPath, cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		_ = f.Close() // the log is for post-mortems only
		close(d.done)
	}()
	return d, nil
}

// alive reports whether every daemon is still running.
func (c *cluster) alive() error {
	for _, d := range c.daemons {
		select {
		case <-d.done:
			return fmt.Errorf("%s exited during the run (see %s)", d.name, d.logPath)
		default:
		}
	}
	return nil
}

// stop shuts the daemons down in reverse boot order (SIGTERM, then
// SIGKILL after a grace period) and waits for each to exit.
func (c *cluster) stop() {
	for i := len(c.daemons) - 1; i >= 0; i-- {
		d := c.daemons[i]
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.done:
		case <-clk.After(10 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.done
		}
	}
	c.daemons = nil
}
