package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) add(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// envRecord identifies where and on what a result was measured.
type envRecord struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Go         string `json:"go"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

func main() {
	workload := flag.String("workload", "", "router-json-cold, direct-binary-warm or train-listwise")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	secs := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	out := flag.String("out", ".bench_build", "directory for trace files")
	flag.Parse()
	runtime.GOMAXPROCS(runtime.NumCPU())

	env := envRecord{
		Workload: *workload, Seed: *seed, Seconds: *secs, Trace: *trace == 1,
		Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), Commit: commit(),
	}
	envLine, _ := json.Marshal(map[string]any{"env": env})
	fmt.Println(string(envLine))

	var (
		res *result
		err error
	)
	switch {
	case *secs < 1:
		err = fmt.Errorf("--seconds must be at least 1")
	case *workload == routerJSONCold.name || *workload == directBinaryWarm.name:
		w := routerJSONCold
		if *workload == directBinaryWarm.name {
			w = directBinaryWarm
		}
		if *trace == 1 {
			res, err = traceServing(w, *seed, *secs, *out, env)
		} else {
			res, err = runServing(w, *seed, *secs)
		}
	case *workload == trainListwise:
		if *trace == 1 {
			res, err = traceTrain(*seed, *secs, *out, env)
		} else {
			res, err = runTrain(*seed, *secs)
		}
	default:
		err = fmt.Errorf("unknown --workload %q", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// quantile returns the nearest-rank q-quantile of vs (sorted in place).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	sort.Float64s(vs)
	i := int(math.Ceil(q*float64(len(vs)))) - 1
	return vs[max(0, min(i, len(vs)-1))]
}

// windowedQuantile is the tail statistic: vs, in arrival order, is cut
// into consecutive windows of at least minWindow values, and the median of
// the windows' q-quantiles is returned, so a stall of the machine inflates
// one window's tail instead of the run's.
func windowedQuantile(vs []float64, q float64, minWindow int) float64 {
	return windowed(vs, minWindow, func(w []float64) float64 { return quantile(w, q) })
}

// windowedMean is the median of the means of the same windows.
func windowedMean(vs []float64, minWindow int) float64 {
	return windowed(vs, minWindow, func(w []float64) float64 {
		sum := 0.0
		for _, v := range w {
			sum += v
		}
		return sum / float64(len(w))
	})
}

func windowed(vs []float64, minWindow int, stat func([]float64) float64) float64 {
	k := max(1, len(vs)/minWindow)
	out := make([]float64, k)
	for w := range out {
		lo, hi := w*len(vs)/k, (w+1)*len(vs)/k
		out[w] = stat(append([]float64(nil), vs[lo:hi]...))
	}
	return median(out)
}

func median(vs []float64) float64 {
	return quantile(append([]float64(nil), vs...), 0.5)
}

// cpuTimeNS is the process's user+sys CPU time.
func cpuTimeNS() int64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the code under test: the checked-out git commit when the
// working directory is a git checkout, otherwise a hash of every Go source
// and go.mod file under it.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return treeHash()
	}
	ref := strings.TrimSpace(string(head))
	name, ok := strings.CutPrefix(ref, "ref: ")
	if !ok {
		return ref
	}
	b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(name)))
	if err != nil {
		return treeHash()
	}
	return strings.TrimSpace(string(b))
}

func treeHash() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("tree-%x", h.Sum(nil)[:8])
}
