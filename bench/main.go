// Command bench is this repository's serving benchmark: it boots the real
// stack in-process (registry → durable core → HTTP handler on a loopback
// listener, plus cluster workers behind loopback TCP where a workload has
// them), drives it over HTTP from two closed-loop clients, checks the
// responses, and prints every metric BENCHMARK.json declares by name and
// unit. See README.md for why each workload exists and how to read a run.
//
//	bash bench/run.sh                                   # every workload, both metric sets
//	bash bench/run.sh -workload oneshot_local -trace 1  # one workload's per-layer budget
//	bash bench/agree.sh                                 # two suites; do they agree within the bounds?
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 25

// setupReps is how many times a run sets the stack up: setup_s is the
// median, and the last stack serves the timed window.
const setupReps = 3

type options struct {
	seed    int64
	seconds int
	trace   bool
	smoke   bool
	out     string
}

// result is the line the benchmark contract asks for, last on stdout.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	name := flag.String("workload", "all", "workload to run, or all: each in its own child process")
	seed := flag.Int64("seed", 1, "seed of keys, inputs and request streams")
	seconds := flag.Int("seconds", defaultSeconds, "length of the timed window")
	trace := flag.String("trace", "", "0: end-to-end metrics; 1: per-layer metrics from the window's counters and a traced pass; unset: 0, or both with -workload all")
	smoke := flag.Bool("smoke", false, "2 s window, one set-up, a minimal traced pass: checks names and plumbing, not performance")
	repeat := flag.Int("repeat", 1, "with -workload all: run the suite this many times with the same seed and fail if an end-to-end metric's spread exceeds its bound")
	history := flag.String("history", "", "with -workload all: append one JSON line per suite run to this file")
	commit := flag.String("commit", "", "commit id recorded in the -history line")
	out := flag.String("out", "", "directory for traces and temporary state (default: bench/out of the checkout the command runs in)")
	flag.Parse()
	if *out == "" {
		root, err := checkoutRoot()
		if err != nil {
			fatal(err)
		}
		*out = filepath.Join(root, "bench", "out")
	}
	if *smoke {
		*seconds = 2
	}
	if *trace != "" && *trace != "0" && *trace != "1" {
		fatal(fmt.Errorf("-trace %q: want 0 or 1", *trace))
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *trace == "1", smoke: *smoke, out: *out}

	if *name == "all" {
		modes := []string{"0", "1"}
		if *trace != "" {
			modes = []string{*trace}
		}
		if err := runSuite(opts, modes, *repeat, *history, *commit); err != nil {
			fatal(err)
		}
		return
	}
	for _, w := range workloadList() {
		if w.name == *name {
			res, err := runWorkload(&w, opts)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w.name, err))
			}
			line, _ := json.Marshal(res)
			fmt.Println(string(line))
			if !res.Correct {
				os.Exit(1)
			}
			return
		}
	}
	fatal(fmt.Errorf("no workload %q", *name))
}

// checkoutRoot is the nearest directory at or above the working directory
// that holds BENCHMARK.json, so the default -out is the same bench/out
// whether the command runs from the root or from bench/.
func checkoutRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json at or above the working directory: pass -out")
		}
		dir = parent
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runWorkload is one run of one workload in this process: set-ups, the timed
// window, verification, self-checks and, with -trace 1, the traced pass.
func runWorkload(w *workload, o options) (*result, error) {
	tmp := filepath.Join(o.out, fmt.Sprintf("tmp-%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	// A signal must not leave spill files and session logs behind either.
	// The channel is never closed: os/signal may still send on it until
	// Stop returns, and the goroutine ends with the process.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	go func() {
		<-sig
		os.RemoveAll(tmp)
		os.Exit(130)
	}()

	reps := setupReps
	lb := layerBudget{requests: 24, kernelIters: 20, execIters: 6, bootIters: 5}
	if o.smoke {
		reps, lb = 1, layerBudget{requests: 4, kernelIters: 2, execIters: 2, bootIters: 1}
	}
	var st *stack
	var setups []*stack
	for i := 0; i < reps; i++ {
		if st != nil {
			st.close()
		}
		var err error
		if st, err = setUp(w.cfg, o.seed, tmp, warmUp(w, o.seed)); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, st)
	}
	defer st.close()
	sort.Slice(setups, func(i, j int) bool { return setups[i].total < setups[j].total })
	setup := setups[len(setups)/2] // only its timings are read; its stack may be closed

	win := runWindow(w, st, o.seed, time.Duration(o.seconds)*time.Second)
	if err := win.verify(st); err != nil {
		return nil, fmt.Errorf("verification: %w", err)
	}
	problems := append(win.errs, w.check(win)...)
	attempted := win.attempted
	if attempted == 0 {
		attempted = 1 // the contract wants ≥ 1; a window that sent nothing is incorrect anyway
		problems = append(problems, "no request completed")
	}

	all := win.latencies(func(sample) bool { return true })
	e2e := map[string]float64{
		"throughput_rps": float64(len(all)) / win.seconds, // OK one-shots or steps completed inside the window
		"latency_p50_ms": percentile(all, 0.50),
		"setup_s":        setup.total,
	}
	defs, got := endToEnd, e2e
	if o.trace {
		layers := windowLayers(w, st, setup.stages, win, e2e)
		tr := newTracer()
		if err := tracedLayers(w, st, tr, o.seed, lb, layers); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		if err := tr.write(filepath.Join(o.out, "trace-"+w.name+".json")); err != nil {
			return nil, err
		}
		defs, got = perLayer, layers
		printMetrics(w.name, endToEnd, e2e)
	}
	metrics, err := emit(defs, got)
	if err != nil {
		return nil, err
	}
	printMetrics(w.name, defs, got)
	fmt.Printf("%s: requests_sent %d, requests_ok %d, requests_failed %d, latency samples %d, responses verified %d (worst slot error %.3g)\n",
		w.name, win.attempted, win.attempted-win.failed, win.failed, len(all), win.verified, win.maxSlotErr)
	for _, p := range problems {
		fmt.Printf("%s: FAILED: %s\n", w.name, p)
	}
	return &result{Correct: len(problems) == 0, Attempted: attempted, Failed: win.failed, Metrics: metrics}, nil
}

func printMetrics(workload string, defs []metricDef, got map[string]float64) {
	for _, d := range defs {
		fmt.Printf("%s  %-40s %14.6g %s\n", workload, d.Name, got[d.Name], d.Unit)
	}
}

// runSuite runs every workload in a child process of its own, so heap, GC
// state and peak RSS do not leak from one workload into the next.
func runSuite(o options, modes []string, repeat int, history, commit string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// runs[r][workload][metric]
	var runs []map[string]map[string]float64
	failed := false
	for r := 0; r < repeat; r++ {
		run := map[string]map[string]float64{}
		for _, w := range workloadList() {
			run[w.name] = map[string]float64{}
			for _, mode := range modes {
				args := []string{"-workload", w.name, "-seed", fmt.Sprint(o.seed),
					"-seconds", fmt.Sprint(o.seconds), "-trace", mode, "-out", o.out}
				if o.smoke {
					args = append(args, "-smoke")
				}
				cmd := exec.Command(self, args...)
				var stdout bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
				runErr := cmd.Run()
				os.Stdout.Write(stdout.Bytes())
				var exit *exec.ExitError
				if runErr != nil && !errors.As(runErr, &exit) {
					return runErr
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					return fmt.Errorf("%s -trace %s printed no result: %v", w.name, mode, runErr)
				}
				if !res.Correct {
					failed = true
				}
				for name, v := range res.Metrics {
					run[w.name][name] = v.Value
				}
			}
		}
		runs = append(runs, run)
		if history != "" {
			if err := appendHistory(history, commit, o.seed, o.seconds, run); err != nil {
				return err
			}
		}
	}
	if repeat > 1 && !agree(runs) {
		failed = true
	}
	if failed {
		return errors.New("suite failed")
	}
	return nil
}

// agree prints every end-to-end metric's values across the suite runs with
// their relative spread, and reports whether each stayed within its bound.
func agree(runs []map[string]map[string]float64) bool {
	ok := true
	for _, w := range workloadList() {
		for _, d := range endToEnd {
			vals := make([]float64, len(runs))
			for r := range runs {
				vals[r] = runs[r][w.name][d.Name]
			}
			sorted := append([]float64(nil), vals...)
			sort.Float64s(sorted)
			spread := ratio(sorted[len(sorted)-1]-sorted[0], median(sorted))
			verdict := "ok"
			if spread > *d.Bound {
				verdict, ok = "EXCEEDS BOUND", false
			}
			fmt.Printf("agree  %-18s %-16s %v  spread %.4f  bound %.2f  %s\n", w.name, d.Name, vals, spread, *d.Bound, verdict)
		}
	}
	return ok
}

// appendHistory keeps a record: one line per suite run, never overwritten.
func appendHistory(path, commit string, seed int64, seconds int, run map[string]map[string]float64) error {
	line, err := json.Marshal(map[string]any{
		"commit":     commit,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"seed":       seed,
		"seconds":    seconds,
		"workloads":  run,
	})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
