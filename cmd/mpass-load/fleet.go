package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// proc is one daemon the runner started.
type proc struct {
	name   string
	cmd    *exec.Cmd
	base   string        // http://host:port once listening
	exited chan struct{} // closed once the process has exited and been reaped
	err    error         // the exit status; valid once exited is closed
	killed bool          // SIGKILLed by a phase action: exempt from the drain check
}

// fleet is the set of processes a scenario boots: mpassd replicas and an
// optional mpass-gateway, executed from binDir.
type fleet struct {
	binDir   string
	dir      string // address files and the shared models/ directory
	replicas []*proc
	gateway  *proc
}

// Flags the runner sets besides each process's address, address file,
// model directory and replica list: every drill trains the same small suite
// with the same attack budget, and drains within the runner's patience.
var (
	replicaFlags = []string{"-malware", "24", "-benign", "24", "-max-queries", "40", "-drain", "30s"}
	gatewayFlags = []string{"-health-interval", "200ms", "-drain", "30s"}
)

// startFleet boots the scenario's fleet. Replica 0 starts alone: it trains
// the suite and saves the models/ envelope directory before it listens, so
// the replicas after it load that directory instead of training again.
// Cancelling ctx kills every process.
func startFleet(ctx context.Context, spec fleetSpec, binDir string) (*fleet, error) {
	dir, err := os.MkdirTemp("", "mpass-load-")
	if err != nil {
		return nil, err
	}
	f := &fleet{binDir: binDir, dir: dir}
	var addrs []string
	for i := 0; i < spec.Replicas; i++ {
		args := append([]string{"-models", filepath.Join(dir, "models")}, replicaFlags...)
		args = append(args, spec.MpassdFlags...)
		p, err := f.start(ctx, fmt.Sprintf("replica:%d", i), "mpassd", args)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.replicas = append(f.replicas, p)
		addrs = append(addrs, strings.TrimPrefix(p.base, "http://"))
	}
	if spec.Gateway {
		args := append([]string{"-replicas", strings.Join(addrs, ",")}, gatewayFlags...)
		if f.gateway, err = f.start(ctx, "gateway", "mpass-gateway", args); err == nil {
			err = waitFleetHealthy(f.gateway.base)
		}
		if err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

// start execs one daemon on a free loopback port and waits until it has
// written its bound address.
func (f *fleet) start(ctx context.Context, name, bin string, args []string) (*proc, error) {
	addrFile := filepath.Join(f.dir, strings.ReplaceAll(name, ":", "")+".addr")
	args = append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, args...)
	cmd := exec.CommandContext(ctx, filepath.Join(f.binDir, bin), args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("%s: %w (build mpassd, mpass-gateway and mpass-load into one directory)", name, err)
	}
	p := &proc{name: name, cmd: cmd, exited: make(chan struct{})}
	//lint:ignore nakedgo one reaper per child process, living exactly as long as the child
	go func() { p.err = cmd.Wait(); close(p.exited) }()

	deadline := time.Now().Add(2 * time.Minute)
	for {
		// The daemon writes "host:port\n" once it is bound — for mpassd, after
		// training and saving its models.
		if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			p.base = "http://" + strings.TrimSpace(string(b))
			return p, nil
		}
		select {
		case <-p.exited:
			return nil, fmt.Errorf("%s exited before listening: %v", name, p.err)
		case <-time.After(100 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			<-p.exited
			return nil, fmt.Errorf("%s never wrote its address", name)
		}
	}
}

// waitFleetHealthy polls a gateway's /healthz until every replica is up,
// so the first phase does not start on a partial ring.
func waitFleetHealthy(base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		var h struct{ Healthy, Total int }
		if resp, data, err := send(http.MethodGet, base+"/healthz", "", nil); err == nil &&
			resp.StatusCode == http.StatusOK && json.Unmarshal(data, &h) == nil && h.Total > 0 && h.Healthy == h.Total {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gateway %s: fleet never became fully healthy", base)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// signal sends sig to replica i. SIGKILL also waits for the process to be
// reaped and exempts it from the drain.
func (f *fleet) signal(i int, sig syscall.Signal) error {
	p := f.replicas[i]
	if err := p.cmd.Process.Signal(sig); err != nil {
		return fmt.Errorf("%s: %v: %w", p.name, sig, err)
	}
	if sig == syscall.SIGKILL {
		<-p.exited
		p.killed = true
	}
	return nil
}

// drain SIGTERMs the gateway, then each live replica, and reports every
// process that did not exit 0 — or that died before it was asked to.
func (f *fleet) drain() []string {
	var v []string
	for _, p := range f.procs() {
		if p.killed {
			continue
		}
		select {
		case <-p.exited:
			v = append(v, fmt.Sprintf("%s exited before the drain: %v", p.name, p.err))
			continue
		default:
		}
		p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.exited:
			if p.err != nil {
				v = append(v, fmt.Sprintf("%s drain: %v", p.name, p.err))
			}
		case <-time.After(time.Minute):
			p.cmd.Process.Kill()
			<-p.exited
			v = append(v, fmt.Sprintf("%s did not drain within a minute", p.name))
		}
	}
	return v
}

// stop kills whatever is still running and removes the scratch directory.
func (f *fleet) stop() {
	for _, p := range f.procs() {
		p.cmd.Process.Kill()
		<-p.exited
	}
	os.RemoveAll(f.dir)
}

// procs lists the fleet in drain order: the gateway, then the replicas.
func (f *fleet) procs() []*proc {
	if f.gateway == nil {
		return f.replicas
	}
	return append([]*proc{f.gateway}, f.replicas...)
}

// tenantReloads reads replica i's tenant_reloads counter.
func (f *fleet) tenantReloads(i int) (int64, error) {
	m, err := fetchMetrics(f.replicas[i].base)
	if err != nil {
		return 0, err
	}
	return m[0].Metrics.TenantReloads, nil
}

// sighup asks replica i to re-read its tenant allowlist and waits until
// /metrics shows the reload landed.
func (f *fleet) sighup(i int) error {
	before, err := f.tenantReloads(i)
	if err != nil {
		return err
	}
	if err := f.signal(i, syscall.SIGHUP); err != nil {
		return err
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		n, err := f.tenantReloads(i)
		if err != nil {
			return err
		}
		if n > before {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica:%d: tenant_reloads still %d 10s after SIGHUP", i, n)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// modelVersions reads every live replica's /healthz model_version ("" for
// a killed replica).
func (f *fleet) modelVersions() ([]string, error) {
	out := make([]string, len(f.replicas))
	for i, p := range f.replicas {
		if p.killed {
			continue
		}
		v, err := fetchModelVersion(p.base)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// fetchModelVersion reads a replica's resident generation off /healthz.
func fetchModelVersion(base string) (string, error) {
	var h struct {
		ModelVersion string `json:"model_version"`
	}
	resp, data, err := send(http.MethodGet, base+"/healthz", "", nil)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &h) != nil || h.ModelVersion == "" {
		return "", fmt.Errorf("%s/healthz: status %d, no model_version", base, resp.StatusCode)
	}
	return h.ModelVersion, nil
}
