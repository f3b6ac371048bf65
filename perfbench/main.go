// Command perfbench is the repository benchmark: it runs one workload,
// checks the program's outputs, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end figures; with -trace 1 a
// separate traced run reports the per-layer figures instead. The benchmark
// sits outside the program: it imports the module's packages and times
// calls into their public functions. See README.md for why each workload
// exists and which end-to-end metric each layer metric should move.
//
// Usage (from the repository root, through the build wrapper):
//
//	python3 perfbench/run.py --workload set1-detailed --seed 1 --seconds 30 --trace 0
//	python3 perfbench/run.py --compare a.out,b.out
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the simulator's own default seed (sim.DefaultConfig):
// the seed the committed golden digests were recorded at.
const defaultSeed = 1

// A run sets its workload up in fresh child processes, at least
// minSetupProbes times and until the probes took setupProbeBudget or
// maxSetupProbes were made, and reports setup_s as their median: a
// set-up of milliseconds needs many samples, one of seconds few.
const (
	minSetupProbes   = 3
	maxSetupProbes   = 31
	setupProbeBudget = 2 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// host is the topology every result is stamped with; results from hosts
// whose topology differs are not comparable.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
}

func currentHost() host {
	return host{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOARCH, runtime.Version()}
}

// env is what every workload receives: the generated-input seed, the
// measuring window, the fan-out, a scratch directory inside the checkout,
// and the directory daemon stores go in (the scratch directory in a setup
// probe, which removes it on exit; storesDir otherwise).
type env struct {
	seed    uint64
	seconds float64
	workers int
	scratch string
	stores  string
}

// simSeed is the simulator seed the workload seed maps to. Zero would mean
// "keep the default" to experiments.Options, so it maps to the default.
func (e *env) simSeed() uint64 {
	if e.seed == 0 {
		return defaultSeed
	}
	return e.seed
}

// run collects a workload's checks and metrics.
type run struct {
	attempted, failed int
	metrics           map[string]metric
	// info holds figures printed by name but outside the JSON result:
	// workload-specific end-to-end figures and sample counts.
	info []string
}

func newRun() *run { return &run{metrics: map[string]metric{}} }

// check counts one checked operation and reports a failed one on stderr.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
	return ok
}

// fail counts an operation that returned an error.
func (r *run) fail(err error) {
	r.check(false, "%v", err)
}

func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = metric{v, unit}
}

// note records a figure that is printed but not part of the JSON result.
func (r *run) note(name string, v float64, unit string) {
	r.info = append(r.info, fmt.Sprintf("%s %.6g %s", name, v, unit))
}

// list records every sample of a figure, printed comma-separated.
func (r *run) list(name string, xs []float64) {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = strconv.FormatFloat(x, 'g', 4, 64)
	}
	r.info = append(r.info, name+" "+strings.Join(s, ","))
}

// workload is one benchmark input: setup builds what the timed part needs
// (and is what the setup probes time), measure runs the untraced timed
// part, and trace makes the separate traced run.
type workload struct {
	name    string
	setup   func(e *env) (any, error)
	release func(state any)
	measure func(e *env, state any, r *run)
	trace   func(e *env, state any, r *run)
}

var workloads = []workload{set1Detailed, gridFast, serviceMix}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() { os.Exit(realMain()) }

func realMain() int {
	name := flag.String("workload", "", "workload to run: set1-detailed | grid-fast | service-mix")
	seed := flag.Uint64("seed", defaultSeed, "seed of every generated input")
	seconds := flag.Float64("seconds", 30, "length of the measuring window in seconds")
	traced := flag.Int("trace", 0, "1 makes the traced run that reports per-layer metrics")
	probe := flag.Bool("setup-probe", false, "set the workload up, print ready and exit (used by setup_s)")
	compare := flag.String("compare", "", "two saved outputs, comma-separated, to compare")
	flag.Parse()

	if *compare != "" {
		if err := compareOutputs(*compare); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		return 0
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	scratch, err := scratchDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer func() {
		os.RemoveAll(scratch)
		// Settle the file system before exiting: deleting a daemon's
		// thousands of job files leaves write-back and discards behind
		// that would otherwise land on the next run's set-up.
		syscall.Sync()
	}()
	e := &env{seed: *seed, seconds: *seconds, workers: runtime.NumCPU(), scratch: scratch, stores: storesDir}

	if *probe {
		e.stores = scratch
		state, err := w.setup(e)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Println("ready")
		w.release(state)
		return 0
	}
	if err := benchmark(w, e, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// scratchDir makes a private directory under .bench_build in the current
// directory (the checkout root), so a run writes nothing outside it.
func scratchDir() (string, error) {
	base := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(base, "run-*")
	if err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}

func benchmark(w workload, e *env, traced bool) error {
	h := currentHost()
	hj, _ := json.Marshal(h)
	fmt.Printf("host %s\n", hj)
	fmt.Printf("run {\"workload\":%q,\"seed\":%d,\"seconds\":%g,\"trace\":%t,\"workers\":%d}\n",
		w.name, e.seed, e.seconds, traced, e.workers)

	if err := pruneStores(); err != nil {
		return err
	}
	r := newRun()
	if !traced {
		probes, err := probeSetup(w, e)
		if err != nil {
			return err
		}
		r.set("setup_s", median(probes), "s")
		r.list("setup_s.probes", probes)
	}
	state, err := w.setup(e)
	if err != nil {
		return err
	}
	defer w.release(state)
	if traced {
		w.trace(e, state, r)
	} else {
		w.measure(e, state, r)
	}
	if r.attempted == 0 {
		return errors.New("no operation was attempted")
	}
	want := endToEndNames
	if traced {
		want = nil
		for _, n := range perLayerNames {
			want = append(want, n.name)
		}
	}
	if err := sameNames(r.metrics, want); err != nil {
		return err
	}
	for _, line := range r.info {
		fmt.Println("info", line)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %s %.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	out, err := json.Marshal(result{
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// endToEndNames are the metrics of every untraced run's result line.
var endToEndNames = []string{"setup_s", "campaign_s", "peak_heap_mb", "alloc_mb"}

// sameNames reports a run whose metrics are not exactly the expected set,
// as happens when a workload stopped early on a failed operation.
func sameNames(got map[string]metric, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("run produced %d metrics, want %d", len(got), len(want))
	}
	for _, n := range want {
		if _, ok := got[n]; !ok {
			return fmt.Errorf("run did not produce metric %s", n)
		}
	}
	return nil
}

// probeSetup times the workload's set-up in fresh child processes, from
// process start to the child announcing it is ready, so caches a set-up
// fills (such as the fast engine's profiles) are cold every time.
func probeSetup(w workload, e *env) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	var spent time.Duration
	for i := 0; i < minSetupProbes || (spent < setupProbeBudget && i < maxSetupProbes); i++ {
		cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(e.seed, 10), "-setup-probe")
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, _ := bufio.NewReader(stdout).ReadString('\n')
		d := time.Since(start).Seconds()
		werr := cmd.Wait()
		spent += time.Since(start)
		if strings.TrimSpace(line) != "ready" || werr != nil {
			return nil, fmt.Errorf("setup probe %d of %s failed: %v", i, w.name, werr)
		}
		out = append(out, d)
	}
	return out, nil
}
