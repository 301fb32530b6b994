package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"mpass/internal/corpus"
	"mpass/internal/detect"
	"mpass/internal/engine"
	"mpass/internal/gateway"
	"mpass/internal/nn"
	"mpass/internal/server"
	"mpass/internal/tenant"
)

// ensureModels trains the resident suite from the fixed model seed and
// saves it as an envelope directory under root, once per checkout: training
// is deterministic, so later runs load the same bytes. Training runs in a
// child process so its memory never counts toward the hosting process's
// peak. It is not timed.
func ensureModels(root string) (string, error) {
	dir := filepath.Join(root, fmt.Sprintf("models-seed%d-%dx%d", modelSeed, modelMal, modelBen))
	if _, err := os.Stat(dir); err == nil {
		return dir, nil
	}
	tmp := fmt.Sprintf("%s.tmp%d", dir, os.Getpid())
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	cmd := exec.Command(self, "-train-into", tmp)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		os.RemoveAll(tmp)
		return "", fmt.Errorf("training models: %w", err)
	}
	if err := os.Rename(tmp, dir); err != nil {
		os.RemoveAll(tmp)
		if _, serr := os.Stat(dir); serr == nil {
			return dir, nil // a concurrent run got there first
		}
		return "", err
	}
	return dir, nil
}

// trainModels is the child-process side of ensureModels.
func trainModels(dir string) error {
	ds := corpus.MakeAugmentedDataset(modelSeed, modelMal, modelBen, 0.67)
	cfg := detect.DefaultTrainConfig()
	cfg.Seed = modelSeed
	suite, err := detect.TrainSuite(ds, cfg)
	if err != nil {
		return err
	}
	set, err := engine.FromSuite(suite)
	if err != nil {
		return err
	}
	return engine.SaveDir(dir, set)
}

// replica is one hosted mpassd: the engine set as loaded (undecorated, for
// direct scoring), the server built on it and its loopback listener.
type replica struct {
	set  *engine.Set
	srv  *server.Server
	http *http.Server
	addr string
	done chan struct{}
}

// host is one set-up of a workload's serving stack.
type host struct {
	reps   []*replica
	gw     *gateway.Gateway
	gwHTTP *http.Server
	gwDone chan struct{}
	base   string // where the load generator sends
	keys   []string
}

// tenantKeys are the two scan-hot tenants' API keys.
var tenantKeys = []string{"perfbench-tenant-a", "perfbench-tenant-b"}

// serve starts h on a fresh loopback listener.
func serve(h http.Handler) (*http.Server, string, chan struct{}, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln)
	}()
	return hs, ln.Addr().String(), done, nil
}

// startHost is the restart path set-up time measures: load the envelope
// directory, apply the workload's quant mode, start every server (and the
// gateway) on loopback. rec non-nil wraps the public interfaces in tracing
// decorators; bySize names the multi-MiB inputs for the traced gateway
// transport.
func startHost(w workload, modelDir, spoolDir string, rec *recorder, bySize map[int64]digest) (*host, error) {
	h := &host{}
	gen := corpus.NewGenerator(modelSeed + 77000) // mpassd's donor pool
	donors := make([][]byte, donorCount)
	for i := range donors {
		donors[i] = gen.Sample(corpus.Benign).Raw
	}
	var addrs []string
	for i := 0; i < w.replicas; i++ {
		set, err := engine.LoadDir(modelDir)
		if err != nil {
			h.close()
			return nil, err
		}
		if w.quant != nn.QuantOff {
			for _, d := range set.Drivers() {
				if q, ok := engine.QuantizerOf(d); ok {
					q.SetQuantMode(w.quant)
				}
			}
		}
		served := set
		if rec != nil {
			if served, err = traceSet(set, rec); err != nil {
				h.close()
				return nil, err
			}
		}
		reg, err := engine.NewRegistry(served)
		if err != nil {
			h.close()
			return nil, err
		}
		cfg := server.Config{
			Registry:  reg,
			Attack:    server.MPassAttack(reg, donors, maxQueries),
			Quant:     w.quant,
			CacheSize: w.cacheSize,
			Seed:      modelSeed,
		}
		if rec != nil {
			cfg.Attack = tracedAttack(reg, donors, maxQueries, rec)
		}
		if w.tenants {
			var ts []tenant.Tenant
			for k, key := range tenantKeys {
				// Quotas sit well above anything the ladder offers, so
				// admission meters every request but never sheds one.
				ts = append(ts, tenant.Tenant{Name: fmt.Sprintf("tenant-%c", 'a'+k), Key: key,
					RatePerSec: 100000, Burst: 100000, MaxInFlight: 64})
			}
			cfg.Tenants = tenant.NewTable(ts, time.Now())
			h.keys = tenantKeys
		}
		srv, err := server.New(cfg)
		if err != nil {
			h.close()
			return nil, err
		}
		var handler http.Handler = srv.Handler()
		if rec != nil {
			handler = traceHandler(handler, rec)
		}
		hs, addr, done, err := serve(handler)
		if err != nil {
			srv.Shutdown(context.Background())
			h.close()
			return nil, err
		}
		h.reps = append(h.reps, &replica{set: set, srv: srv, http: hs, addr: addr, done: done})
		addrs = append(addrs, addr)
	}
	h.base = "http://" + addrs[0]
	if w.replicas > 1 {
		// The transport the gateway would build for itself, so traced and
		// untraced runs forward over identical connection pools.
		var tr http.RoundTripper = &http.Transport{
			MaxIdleConns:        64 * len(addrs),
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}
		if rec != nil {
			tr = &hopTransport{inner: tr, rec: rec, bySize: bySize}
		}
		gw, err := gateway.New(gateway.Config{Replicas: addrs, Transport: tr, SpoolDir: spoolDir, Seed: modelSeed})
		if err != nil {
			h.close()
			return nil, err
		}
		h.gw = gw
		hs, addr, done, err := serve(gw.Handler())
		if err != nil {
			h.close()
			return nil, err
		}
		h.gwHTTP, h.gwDone = hs, done
		h.base = "http://" + addr
	}
	return h, nil
}

// close stops the gateway, then every replica, and waits for each server
// goroutine to exit.
func (h *host) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if h.gw != nil {
		errs = append(errs, h.gw.Close(ctx))
	}
	if h.gwHTTP != nil {
		errs = append(errs, h.gwHTTP.Shutdown(ctx))
		<-h.gwDone
	}
	repErrs := make([]error, len(h.reps))
	var wg sync.WaitGroup
	for i, r := range h.reps {
		wg.Add(1)
		go func(i int, r *replica) {
			defer wg.Done()
			pipe := make(chan error, 1)
			go func() { pipe <- r.srv.Shutdown(ctx) }()
			httpErr := r.http.Shutdown(ctx)
			<-r.done
			repErrs[i] = errors.Join(httpErr, <-pipe)
		}(i, r)
	}
	wg.Wait()
	return errors.Join(append(errs, repErrs...)...)
}

// counters is one reading of every /metrics document the run watches.
type counters struct {
	reps []server.MetricsSnapshot
	gw   gateway.GatewaySnapshot
	at   time.Time
}

// readCounters reads every replica's /metrics and the gateway's own
// counters, over the load client's connections so control reads stay
// inside the connection budget.
func (h *host) readCounters(ctx context.Context, c *client) (counters, error) {
	out := counters{reps: make([]server.MetricsSnapshot, len(h.reps)), at: time.Now()}
	for i, r := range h.reps {
		if err := c.getJSON(ctx, "http://"+r.addr+"/metrics", &out.reps[i]); err != nil {
			return out, err
		}
	}
	if h.gw != nil {
		var cm gateway.ClusterMetrics
		if err := c.getJSON(ctx, h.base+"/metrics", &cm); err != nil {
			return out, err
		}
		out.gw = cm.Gateway
	}
	return out, nil
}
