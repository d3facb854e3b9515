package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
)

// opTimeout bounds one Wait. Every operation of these workloads finishes far
// inside it; one that does not is counted as failed.
const opTimeout = time.Minute

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dir      string
	clients  int
	// episodes and rounds, when positive, replace the number of episodes
	// sized from seconds and the number of rounds in each; small cuts every
	// input pool down to a few formulas. All three exist for the package's
	// tests.
	episodes, rounds int
	small            bool
	// tamper, when non-nil, alters every timed answer before it is checked,
	// so tests can show that a wrong answer is counted as failed.
	tamper func(*maxsat.Result)
}

// workload is one traffic mix in one episode. An episode executes whole
// units (one formula, or one session) on a closed loop; every unit holds one
// or more operations.
type workload interface {
	// setup makes the episode's inputs from b.rng, serialises them, and
	// opens b.srv on b.dataDir (hot-hits also fills the cache).
	setup(b *bench) error
	// units is the number of closed-loop work units, ops the number of
	// timed operations they hold.
	units() int
	ops() int
	// run executes unit u, recording each operation into b.recs.
	run(b *bench, u int)
	// check verifies unit u's answers, reporting each failed operation.
	check(b *bench, u int, fail func(op int, err error))
	// checkSetup verifies what set-up produced; setupStored is the number of
	// certified answers set-up wrote to the durable store.
	checkSetup(b *bench) error
	setupStored() int64
	// layers runs the traced run's standalone per-layer calls on the
	// workload's inputs.
	layers(b *bench, m metrics) error
}

// kind makes a workload's episodes. episodeSeconds is how long one episode's
// timed segment lasts on the reference machine (2 vCPU): a run holds about
// seconds/episodeSeconds episodes.
// restarts is the number of restarts timed after each segment.
type kind struct {
	newEpisode     func(cfg config, episode int) workload
	episodeSeconds float64
	restarts       int
}

var workloads = map[string]kind{
	"cold-cert":   {newColdCert, coldEpisodeSeconds, 1},
	"hot-hits":    {newHotHits, hotEpisodeSeconds, hotRestarts},
	"bmc-session": {newBMC, bmcEpisodeSeconds, 1},
}

// bench is the state of one run. work, srv, dataDir, recs and opBase belong
// to the current episode.
type bench struct {
	cfg     config
	ctx     context.Context
	rng     *rand.Rand // the run's inputs come from it, episode by episode
	work    workload
	srv     *maxsat.Server
	root    string
	dataDir string
	recs    []opRec
	opBase  int     // run-wide id of the episode's first operation
	tr      *tracer // nil unless traced
}

// opRec is one timed operation: its latency and its answer.
type opRec struct {
	lat time.Duration
	res maxsat.Result
	err error
}

type report struct {
	correct           bool
	attempted, failed int
	metrics           metrics
	notes             []string
}

func (b *bench) notef(rep *report, format string, args ...any) {
	rep.notes = append(rep.notes, fmt.Sprintf(b.cfg.workload+": "+format, args...))
}

// open starts the server under test on b.dataDir.
func (b *bench) open() error {
	if err := os.MkdirAll(b.dataDir, 0o755); err != nil {
		return err
	}
	srv, err := maxsat.OpenServer(maxsat.ServerConfig{Workers: b.cfg.clients, DataDir: b.dataDir})
	if err != nil {
		return err
	}
	b.srv = srv
	return nil
}

// oneShot is one request: parse the body, submit, wait.
func (b *bench) oneShot(op int, text []byte, o maxsat.Options) maxsat.Result {
	t0 := time.Now()
	var t1, t2 time.Time
	w, err := maxsat.ParseWCNF(bytes.NewReader(text))
	if b.tr != nil {
		t1 = time.Now()
	}
	var job *maxsat.Job
	if err == nil {
		job, err = b.srv.Submit(w, o)
	}
	if b.tr != nil {
		t2 = time.Now()
	}
	var res maxsat.Result
	if err == nil {
		ctx, cancel := context.WithTimeout(b.ctx, opTimeout)
		res, err = job.Wait(ctx)
		cancel()
	}
	t3 := time.Now()
	b.recs[op] = opRec{lat: t3.Sub(t0), res: res, err: err}
	if b.tr != nil {
		id := b.opBase + op
		b.tr.add("op", id, t0, t3)
		b.tr.add("cnf.parse", id, t0, t1)
		b.tr.add("serve.submit", id, t1, t2)
		b.tr.add("serve.wait", id, t2, t3)
	}
	return res
}

// closedLoop runs units 0..n-1 on clients goroutines; each client starts its
// next unit only when the previous one has returned.
func closedLoop(clients, n int, fn func(u int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				u := int(next.Add(1)) - 1
				if u >= n {
					return
				}
				fn(u)
			}
		}()
	}
	wg.Wait()
}

// episodes is the number of episodes in a run of kind k.
func (k kind) episodes(cfg config) int {
	if cfg.episodes > 0 {
		return cfg.episodes
	}
	return max(1, int(math.Round(float64(cfg.seconds)/k.episodeSeconds)))
}

// A run is a row of episodes. Each episode sets up on a fresh data
// directory (timed: setup_s), runs its timed segment on a closed loop,
// closes the server, restarts on copies of the directory (timed: ready_s)
// and checks its answers. Every figure is thus sampled all through the run,
// not in one stretch of it, so a slow stretch of the machine weighs on all
// of them alike.
func run(cfg config) (*report, error) {
	k, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(cfg.dir, "run-"+cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	b := &bench{cfg: cfg, ctx: context.Background(), root: root, rng: rand.New(rand.NewSource(cfg.seed))}
	defer func() {
		if b.srv != nil {
			b.srv.Close()
		}
	}()
	if cfg.trace {
		b.tr = newTracer()
	}
	rep := &report{correct: true, metrics: metrics{}}
	m := rep.metrics

	nEp := k.episodes(cfg)
	var all []opRec // every operation of the run, answers stripped once checked
	var setups, readies, disks []float64
	var elapsed, cpu time.Duration
	var gc float64
	var alloc uint64
	var subs, hits, rejected int64
	for e := 0; e < nEp; e++ {
		b.work = k.newEpisode(cfg, e)
		b.dataDir = filepath.Join(root, fmt.Sprintf("data-%d", e))
		runtime.GC()
		t0 := time.Now()
		if err := b.work.setup(b); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())

		// Timed segment.
		b.recs, b.opBase = make([]opRec, b.work.ops()), len(all)
		st0 := b.srv.Stats()
		runtime.GC()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		cpu0, gc0 := cpuTime(), gcCPU()
		t0 = time.Now()
		closedLoop(cfg.clients, b.work.units(), func(u int) { b.work.run(b, u) })
		elapsed += time.Since(t0)
		cpu += cpuTime() - cpu0
		gc += gcCPU() - gc0
		runtime.ReadMemStats(&ms1)
		alloc += ms1.TotalAlloc - ms0.TotalAlloc
		st1 := b.srv.Stats()
		subs += st1.Submitted - st0.Submitted
		hits += st1.CacheHits - st0.CacheHits
		rejected += st1.CertRejected - st0.CertRejected
		b.srv.Close()
		b.srv = nil

		// Durable state, then the restart.
		disk, err := dirSize(b.dataDir)
		if err != nil {
			return nil, err
		}
		disks = append(disks, float64(disk)/1e6)
		if cfg.trace && e == nEp-1 {
			if err := b.storeLayers(m); err != nil {
				return nil, err
			}
		}
		stored := b.work.setupStored()
		for _, r := range b.recs {
			if r.err == nil && len(r.res.Certificate) > 0 && !r.res.Cached {
				stored++
			}
		}
		for i := 0; i < k.restarts; i++ {
			d, st, err := b.restart()
			if err != nil {
				return nil, fmt.Errorf("restart: %w", err)
			}
			readies = append(readies, d.Seconds())
			if st.Recovered != stored || st.RecoveredRejected != 0 {
				rep.correct = false
				b.notef(rep, "episode %d: restart recovered %d answers (%d rejected), %d certified answers were written",
					e, st.Recovered, st.RecoveredRejected, stored)
			}
		}
		if err := os.RemoveAll(b.dataDir); err != nil {
			return nil, err
		}

		// Independent checks, untimed. Then only what the metrics need of
		// the answers is kept, so that every segment starts on a heap of
		// the same size.
		b.checkEpisode(rep)
		for _, r := range b.recs {
			all = append(all, opRec{lat: r.lat, err: r.err, res: maxsat.Result{Reused: r.res.Reused}})
		}
	}
	rssMB := maxRSSMB()
	b.recs = all
	n := len(all)
	lats := make([]float64, n)
	completed := 0
	for i, r := range b.recs {
		lats[i] = r.lat.Seconds() * 1e3
		if r.err == nil {
			completed++
		}
	}
	slices.Sort(lats)
	rep.attempted = n
	b.notef(rep, "seed %d: %d episodes, %d operations (%d failed) in %.2f s timed on %d clients; set-up %.3f s; ready %.3f s",
		cfg.seed, nEp, n, rep.failed, elapsed.Seconds(), cfg.clients, median(setups), median(readies))

	if !cfg.trace {
		m.set("setup_s", median(setups), "s")
		m.set("jobs_per_s", float64(completed)/elapsed.Seconds(), "1/s")
		m.set("latency_p50_ms", quantile(lats, 0.50), "ms")
		m.set("latency_p90_ms", quantile(lats, 0.90), "ms")
		m.set("cpu_ms_per_job", cpu.Seconds()*1e3/float64(n), "ms")
		m.set("peak_rss_mb", rssMB, "MB")
		m.set("ready_s", median(readies), "s")
		m.set("disk_mb", median(disks), "MB")
		return rep, nil
	}

	// Traced run: per-layer metrics from the spans of the segments and of
	// standalone calls on the last episode's inputs.
	m.set("trace.jobs_per_s", float64(completed)/elapsed.Seconds(), "1/s")
	m.set("process.alloc_kb_per_job", float64(alloc)/1e3/float64(n), "KB/op")
	m.set("process.gc_cpu_ms_per_job", gc*1e3/float64(n), "ms/op")
	m.set("serve.hit_ratio", ratio(hits, subs), "ratio")
	m.set("serve.cert_rejected", float64(rejected), "count")
	if err := b.work.layers(b, m); err != nil {
		return nil, err
	}
	for _, name := range spanMetrics {
		ms, _ := b.tr.meanMS(name)
		m.set(name+"_ms", ms, "ms/op")
	}
	path := filepath.Join(cfg.dir, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := b.tr.write(path, m); err != nil {
		return nil, err
	}
	b.notef(rep, "spans written to %s", path)
	return rep, nil
}

// checkEpisode checks the current episode's answers apart from the program
// and counts each failed operation in rep.
func (b *bench) checkEpisode(rep *report) {
	if b.cfg.tamper != nil {
		for i := range b.recs {
			b.cfg.tamper(&b.recs[i].res)
		}
	}
	failed := make([]error, len(b.recs))
	var mu sync.Mutex
	closedLoop(b.cfg.clients, b.work.units(), func(u int) {
		b.work.check(b, u, func(op int, err error) {
			mu.Lock()
			if failed[op] == nil {
				failed[op] = err
			}
			mu.Unlock()
		})
	})
	for i, r := range b.recs {
		if r.err != nil {
			failed[i] = r.err
		}
	}
	for i, err := range failed {
		if err != nil {
			if rep.failed < 3 {
				b.notef(rep, "operation %d failed: %v", b.opBase+i, err)
			}
			rep.failed++
		}
	}
	if err := b.work.checkSetup(b); err != nil {
		rep.correct = false
		b.notef(rep, "set-up answers: %v", err)
	}
}

// spanMetrics are the per-layer metrics that are the mean duration of the
// spans of that name.
var spanMetrics = []string{
	"cnf.parse", "serve.submit", "serve.wait", "serve.fingerprint",
	"serve.session_push", "serve.session_submit", "serve.session_wait",
	"core.solve", "core.inc_solve", "opt.certify", "proof.check",
}

// restart copies the episode's data directory, which its server has closed,
// and times OpenServer plus Recover on the copy: what the daemon does before
// /readyz turns green. Recover compacts the journal, so every restart needs
// the directory as the segment left it.
func (b *bench) restart() (time.Duration, maxsat.ServerStats, error) {
	dir := b.dataDir + "-restart"
	if err := copyDir(b.dataDir, dir); err != nil {
		return 0, maxsat.ServerStats{}, err
	}
	defer os.RemoveAll(dir)
	runtime.GC()
	t0 := time.Now()
	srv, err := maxsat.OpenServer(maxsat.ServerConfig{Workers: b.cfg.clients, DataDir: dir})
	if err != nil {
		return 0, maxsat.ServerStats{}, err
	}
	defer srv.Close()
	if err := srv.Recover(); err != nil {
		return 0, maxsat.ServerStats{}, err
	}
	d := time.Since(t0)
	return d, srv.Stats(), nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*q+0.999999) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// gcCPU is the process's cumulative GC CPU time in seconds.
func gcCPU() float64 {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

func fileMB(path string) float64 {
	info, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(info.Size()) / 1e6
}

// copyDir copies the regular files of src (not recursive: a data directory
// is flat) into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
