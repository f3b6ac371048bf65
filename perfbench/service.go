package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"bankaware/internal/ledger"
	"bankaware/internal/metrics"
	"bankaware/internal/service"
	"bankaware/internal/stats"
)

const (
	// mcTrials sizes each fresh job: a tiny Monte Carlo campaign whose
	// run time is of the order of the service's own intake and write
	// stages. An assumption, not recorded traffic; each run prints the
	// stage split that judges it (README.md, service-mix).
	mcTrials = 8
	// opsPerRound is one round of the closed loop: half fresh jobs, half
	// duplicates, in a seed-shuffled order. The 1:1 ratio is an
	// assumption too, fixed so that seeds compare (README.md).
	opsPerRound = 64
	// samplesKept bounds the reports replayed through the standalone
	// store and ledger calls of the traced run.
	samplesKept = 32
)

// daemon is an in-process bankawared: service, store in a fresh
// directory, and the HTTP handler on a loopback listener.
type daemon struct {
	svc    *service.Service
	srv    *http.Server
	served chan struct{}
	url    string
	client *http.Client
}

// storesDir holds the daemons' store directories. A run leaves its store
// in place when it ends: deleting the tens of thousands of small files a
// run writes makes the file system discard their blocks, and that slowed
// the next run's fsyncs (and its campaign_s) by up to 1.4x on the
// development host. Instead pruneStores, at the start of every run,
// deletes all but the keptStores newest stores and syncs, so the discards
// land before anything is timed. A 30 s run's store takes about 100 MB, so
// the directory holds at most (keptStores+1) x 100 MB at that length.
var storesDir = filepath.Join(".bench_build", "service-stores")

const keptStores = 2

// pruneStores deletes all but the keptStores most recently modified stores
// under storesDir and syncs the file system.
func pruneStores() error {
	entries, err := os.ReadDir(storesDir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	type store struct {
		path string
		mod  time.Time
	}
	var stores []store
	for _, de := range entries {
		info, err := de.Info()
		if err != nil {
			return err
		}
		stores = append(stores, store{filepath.Join(storesDir, de.Name()), info.ModTime()})
	}
	if len(stores) <= keptStores {
		return nil
	}
	sort.Slice(stores, func(i, j int) bool { return stores[i].mod.After(stores[j].mod) })
	for _, st := range stores[keptStores:] {
		if err := os.RemoveAll(st.path); err != nil {
			return err
		}
	}
	syscall.Sync()
	return nil
}

func startDaemon(e *env) (*daemon, error) {
	if err := os.MkdirAll(e.stores, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.stores, "daemon-*")
	if err != nil {
		return nil, err
	}
	svc, err := service.New(service.Config{Dir: dir, Jobs: e.workers, Workers: 1})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err := svc.Start(); err != nil {
		svc.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{
		svc: svc, served: make(chan struct{}),
		srv:    &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4 * e.workers}},
	}
	go func() {
		defer close(d.served)
		d.srv.Serve(ln)
	}()
	return d, nil
}

// stop shuts the listener and the service down and waits for both. The
// store directory stays; a setup probe's is in its scratch directory.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		d.srv.Close()
	}
	<-d.served
	d.client.CloseIdleConnections()
	d.svc.Close()
}

// finished is a fresh job whose report was fetched and verified: the
// target of later duplicates. intake, wait and fetch split its round trip:
// POST until 202, event stream until done, report GET and hash check.
type finished struct {
	body, id, etag, hash string
	report               []byte
	intake, wait, fetch  time.Duration
}

// op is one closed-loop operation and, after it ran, its outcome.
type op struct {
	fresh bool
	body  string
	dup   *finished
	lat   time.Duration
	done  *finished
	hit   bool
	err   error
}

// mixPlan generates the inputs of the service loop from the seed: the
// Monte Carlo seeds of fresh jobs, the order of fresh and duplicate
// operations, and which finished job each duplicate repeats.
type mixPlan struct {
	rng  *rand.Rand
	used map[uint64]bool
}

func newMixPlan(seed uint64) *mixPlan {
	return &mixPlan{rng: rand.New(rand.NewPCG(seed, 0x5e4f1ce5eed)), used: map[uint64]bool{}}
}

func (p *mixPlan) freshBody() string {
	s := p.rng.Uint64()
	for s == 0 || p.used[s] {
		s = p.rng.Uint64()
	}
	p.used[s] = true
	return fmt.Sprintf(`{"kind":"montecarlo","seed":%d,"montecarlo":{"trials":%d}}`, s, mcTrials)
}

// round plans one round over the jobs finished before it (in the order
// they were planned, so the plan does not depend on completion order).
func (p *mixPlan) round(pool []*finished) []*op {
	ops := make([]*op, opsPerRound)
	for i := range ops {
		if i < opsPerRound/2 {
			ops[i] = &op{fresh: true, body: p.freshBody()}
		} else {
			ops[i] = &op{dup: pool[p.rng.IntN(len(pool))]}
		}
	}
	p.rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// closedLoop runs ops on the daemon from e.workers clients, each sending
// its next operation only after the previous one completed.
func (d *daemon) closedLoop(e *env, ops []*op) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < e.workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				o := ops[i]
				start := time.Now()
				if o.fresh {
					o.done, o.err = d.freshJob(o.body)
				} else {
					o.hit, o.err = d.duplicate(o.dup)
				}
				o.lat = time.Since(start)
			}
		}()
	}
	wg.Wait()
}

func (d *daemon) post(body string) (service.JobRecord, *http.Response, error) {
	var rec service.JobRecord
	resp, err := d.client.Post(d.url+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		return rec, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return rec, resp, err
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, resp, fmt.Errorf("POST /v1/jobs -> %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return rec, resp, nil
}

// freshJob submits a new spec, waits on the job's event stream until it
// finishes, then fetches the report and verifies its hash.
func (d *daemon) freshJob(body string) (*finished, error) {
	t0 := time.Now()
	rec, resp, err := d.post(body)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	if resp.StatusCode != http.StatusAccepted || resp.Header.Get("X-Bankaware-Cache") != "miss" {
		return nil, fmt.Errorf("fresh submit -> %d cache=%q, want 202 miss", resp.StatusCode, resp.Header.Get("X-Bankaware-Cache"))
	}
	state, err := d.waitDone(rec.ID)
	if err != nil {
		return nil, err
	}
	if state != service.StateDone {
		return nil, fmt.Errorf("job %s ended %s", rec.ID, state)
	}
	t2 := time.Now()
	resp, err = d.client.Get(d.url + "/v1/jobs/" + rec.ID + "/report")
	if err != nil {
		return nil, err
	}
	report, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("report of %s -> %d", rec.ID, resp.StatusCode)
	}
	sum := sha256.Sum256(report)
	hash := hex.EncodeToString(sum[:])
	etag := resp.Header.Get("ETag")
	if etag != `"sha256-`+hash+`"` {
		return nil, fmt.Errorf("report of %s hashes to %s, ETag says %s", rec.ID, hash, etag)
	}
	return &finished{body: body, id: rec.ID, etag: etag, hash: hash, report: report,
		intake: t1.Sub(t0), wait: t2.Sub(t1), fetch: time.Since(t2)}, nil
}

// waitDone reads the job's server-sent events until the stream ends and
// returns the last state announced.
func (d *daemon) waitDone(id string) (string, error) {
	resp, err := d.client.Get(d.url + "/v1/jobs/" + id + "/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events of %s -> %d", id, resp.StatusCode)
	}
	state := ""
	typ := ""
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			typ = v
		}
		if v, ok := strings.CutPrefix(line, "data: "); ok && typ == service.EventState {
			var ev struct {
				State string `json:"state"`
			}
			if err := json.Unmarshal([]byte(v), &ev); err != nil {
				return "", err
			}
			state = ev.State
		}
	}
	return state, sc.Err()
}

// duplicate resubmits a finished spec, which must be a cache hit on the
// same job and report, then revalidates the report by its ETag.
func (d *daemon) duplicate(f *finished) (bool, error) {
	rec, resp, err := d.post(f.body)
	if err != nil {
		return false, err
	}
	hit := resp.Header.Get("X-Bankaware-Cache") == "hit"
	if resp.StatusCode != http.StatusOK || !hit {
		return hit, fmt.Errorf("duplicate submit -> %d cache=%q, want 200 hit", resp.StatusCode, resp.Header.Get("X-Bankaware-Cache"))
	}
	if rec.ID != f.id || rec.ReportHash != f.hash {
		return hit, fmt.Errorf("duplicate of %s served job %s with report hash %s, want %s", f.id, rec.ID, rec.ReportHash, f.hash)
	}
	req, err := http.NewRequest(http.MethodGet, d.url+"/v1/jobs/"+f.id+"/report", nil)
	if err != nil {
		return hit, err
	}
	req.Header.Set("If-None-Match", f.etag)
	resp, err = d.client.Do(req)
	if err != nil {
		return hit, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified || resp.Header.Get("ETag") != f.etag {
		return hit, fmt.Errorf("revalidating %s -> %d ETag %s, want 304 %s", f.id, resp.StatusCode, resp.Header.Get("ETag"), f.etag)
	}
	return hit, nil
}

// mixRun drives rounds of the loop and keeps what the metrics need.
type mixRun struct {
	d        *daemon
	plan     *mixPlan
	pool     []*finished
	fresh    []*op
	dups     []*op
	freshLat []float64
	hitLat   []float64
}

func newMixRun(e *env, d *daemon) (*mixRun, error) {
	m := &mixRun{d: d, plan: newMixPlan(e.seed)}
	// Warm-up: enough finished jobs for the first round's duplicates, and
	// open connections. Untimed.
	warm := make([]*op, 2*e.workers)
	for i := range warm {
		warm[i] = &op{fresh: true, body: m.plan.freshBody()}
	}
	d.closedLoop(e, warm)
	for _, o := range warm {
		if o.err != nil {
			return nil, fmt.Errorf("warm-up job: %w", o.err)
		}
		m.pool = append(m.pool, o.done)
	}
	return m, nil
}

// round runs one planned round and checks every operation.
func (m *mixRun) round(e *env, r *run) {
	ops := m.plan.round(m.pool)
	m.d.closedLoop(e, ops)
	for _, o := range ops {
		if !r.check(o.err == nil, "%v", o.err) {
			continue
		}
		ms := float64(o.lat.Nanoseconds()) / 1e6
		if o.fresh {
			m.pool = append(m.pool, o.done)
			m.fresh = append(m.fresh, o)
			if len(m.fresh) > samplesKept {
				o.done.report = nil
			}
			m.freshLat = append(m.freshLat, ms)
		} else {
			m.dups = append(m.dups, o)
			m.hitLat = append(m.hitLat, ms)
		}
	}
}

// stageNotes prints where the loop's time goes: the fresh operations'
// share of all operation time, and the medians of a fresh job's stages,
// from the client (intake: POST until 202; wait: event stream until done;
// fetch: report GET and hash check) and from its JobRecord (queue, run).
// They are what the mix's two assumptions, the 1:1 ratio and the job
// size, are judged by (see README.md).
func stageNotes(r *run, m *mixRun) {
	r.note("fresh.time_share", sum(m.freshLat)/(sum(m.freshLat)+sum(m.hitLat)), "ratio")
	var intake, wait, fetch []float64
	for _, o := range m.fresh {
		intake = append(intake, msOf(o.done.intake))
		wait = append(wait, msOf(o.done.wait))
		fetch = append(fetch, msOf(o.done.fetch))
	}
	queue, runMS, _ := recordStages(m.d, m.fresh)
	r.note("fresh.intake_ms_p50", median(intake), "ms")
	r.note("fresh.queue_ms_p50", median(queue), "ms")
	r.note("fresh.run_ms_p50", median(runMS), "ms")
	r.note("fresh.wait_ms_p50", median(wait), "ms")
	r.note("fresh.fetch_ms_p50", median(fetch), "ms")
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// recordStages reads the queue wait and run time of each fresh job from
// its JobRecord, and lists the jobs the store does not hold as done.
func recordStages(d *daemon, fresh []*op) (queue, runMS []float64, missing []string) {
	for _, o := range fresh {
		rec, ok := d.svc.Store().Get(o.done.id)
		if !ok || rec.State != service.StateDone {
			missing = append(missing, o.done.id)
			continue
		}
		queue = append(queue, msOf(rec.StartedAt.Sub(rec.SubmittedAt)))
		runMS = append(runMS, msOf(rec.FinishedAt.Sub(rec.StartedAt)))
	}
	return queue, runMS, missing
}

func percentileNotes(r *run, name string, lat []float64) {
	r.note(name+"_p50_ms", stats.Percentile(lat, 50), "ms")
	r.note(name+"_p90_ms", stats.Percentile(lat, 90), "ms")
	r.note(name+"_p99_ms", stats.Percentile(lat, 99), "ms")
	r.note(name+".samples", float64(len(lat)), "count")
}

var serviceMix = workload{
	name:    "service-mix",
	setup:   func(e *env) (any, error) { return startDaemon(e) },
	release: func(state any) { state.(*daemon).stop() },
	measure: func(e *env, state any, r *run) {
		m, err := newMixRun(e, state.(*daemon))
		if err != nil {
			r.fail(err)
			return
		}
		rs, err := measureRounds(e.seconds, 3, func(int) error {
			m.round(e, r)
			return nil
		})
		if err != nil {
			r.fail(err)
			return
		}
		rs.report(r)
		percentileNotes(r, "job", m.freshLat)
		percentileNotes(r, "hit", m.hitLat)
		r.note("jobs_per_s", float64(len(m.fresh))/sum(rs.wall), "1/s")
		stageNotes(r, m)
	},
	trace: traceService,
}

func traceService(e *env, state any, r *run) {
	zeroLayers(r)
	d := state.(*daemon)
	m, err := newMixRun(e, d)
	if err != nil {
		r.fail(err)
		return
	}
	untraced, err := measureRounds(e.seconds/2, 2, func(int) error {
		m.round(e, r)
		return nil
	})
	if err != nil {
		r.fail(err)
		return
	}
	m.fresh, m.dups = nil, nil
	syncs0 := d.svc.Store().Syncs()
	var traced rounds
	shares, err := profiled(e, func() error {
		var err error
		traced, err = measureRounds(e.seconds/2, 2, func(int) error {
			m.round(e, r)
			return nil
		})
		return err
	})
	if err != nil {
		r.fail(err)
		return
	}
	syncs := d.svc.Store().Syncs() - syncs0
	r.set("sim.trace_overhead", median(traced.wall)-median(untraced.wall), "s")
	for layer, s := range shares {
		r.note("pprof."+layer+"_share", s, "ratio")
	}
	if len(m.fresh) == 0 {
		r.fail(errors.New("traced service loop finished no fresh job"))
		return
	}

	queueWait, runMS, missing := recordStages(d, m.fresh)
	r.check(len(missing) == 0, "jobs not done in the store: %v", missing)
	r.set("service.queue_wait_ms", median(queueWait), "ms")
	r.set("service.run_ms", median(runMS), "ms")
	r.set("service.fsyncs_per_job", float64(syncs)/float64(len(m.fresh)), "count")
	hits := 0
	for _, o := range m.dups {
		if o.hit {
			hits++
		}
	}
	r.set("service.cache_hit_ratio", float64(hits)/float64(len(m.fresh)+len(m.dups)), "ratio")

	if err := standaloneStages(e, m, r); err != nil {
		r.fail(err)
	}
}

// standaloneStages times the service stages that run inside a request, by
// calling them directly on the workload's own specs and reports: decode,
// spec hash, report write on a scratch store, ledger append on a scratch
// ledger. A replayed report must store under the hash it was served with.
func standaloneStages(e *env, m *mixRun, r *run) error {
	var decode, hash []float64
	for _, o := range append(m.fresh, m.dups...) {
		body := o.body
		if !o.fresh {
			body = o.dup.body
		}
		start := time.Now()
		spec, err := service.DecodeJobSpec(strings.NewReader(body))
		decode = append(decode, float64(time.Since(start).Nanoseconds())/1e3)
		if err != nil {
			return err
		}
		start = time.Now()
		service.SpecHash(*spec)
		hash = append(hash, float64(time.Since(start).Nanoseconds())/1e3)
	}
	r.set("service.decode_us", median(decode), "us")
	r.set("service.spechash_us", median(hash), "us")

	dir, err := os.MkdirTemp(e.scratch, "store-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := service.OpenStore(dir)
	if err != nil {
		return err
	}
	var writes []float64
	for i, o := range m.fresh {
		if i == samplesKept {
			break
		}
		rep, err := metrics.ReadReport(bytes.NewReader(o.done.report))
		if err != nil {
			return err
		}
		start := time.Now()
		h, err := store.SaveReport(o.done.id, rep)
		writes = append(writes, float64(time.Since(start).Nanoseconds())/1e6)
		if err != nil {
			return err
		}
		r.check(h == o.done.hash, "report of %s re-stored under hash %s, served as %s", o.done.id, h, o.done.hash)
	}
	if err := store.Close(); err != nil {
		return err
	}
	r.set("service.report_write_ms", median(writes), "ms")

	led, err := ledger.Open(filepath.Join(dir, "scratch-ledger.log"))
	if err != nil {
		return err
	}
	var appends []float64
	for i, o := range m.fresh {
		if i == samplesKept {
			break
		}
		start := time.Now()
		_, err := led.Append(ledger.Record{Type: ledger.TypeReport, Job: o.done.id, Hash: o.done.hash}, true)
		appends = append(appends, float64(time.Since(start).Nanoseconds())/1e3)
		if err != nil {
			led.Close()
			return err
		}
	}
	r.set("ledger.append_us", median(appends), "us")
	return led.Close()
}
