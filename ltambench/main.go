// Command ltambench is the repository's benchmark: it drives one
// workload against a live, durable ltamd built from the same checkout,
// checks the outputs against an in-process replay, and prints every
// metric by name with its unit. The last line of standard output is a
// JSON object {"correct", "attempted", "failed", "metrics"}.
//
// Usage (normally through run.sh, which builds both binaries first):
//
//	ltambench -ltamd path -work dir --workload ingest|fanout
//	          --seed n --seconds s --trace 0|1
//
// With --trace 1 the run also replays the same seeded inputs through an
// in-process stack with spans around each layer's public entry points,
// and reports the per-layer metrics instead of the end-to-end ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's final output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func main() {
	// One processor for the generator: its clients mostly wait on the
	// network, and a second runnable generator thread would contend with
	// ltamd for the host's cores and add noise to every figure.
	runtime.GOMAXPROCS(1)
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "ingest or fanout")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds (sizes the fixed ingest frame count)")
	trace := flag.Int("trace", 0, "1 = add the traced in-process replay and report per-layer metrics")
	bin := flag.String("ltamd", "", "path of the ltamd binary under test")
	work := flag.String("work", ".bench_build/run", "scratch directory inside the checkout")
	flag.Parse()
	if *bin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "ltambench: need -ltamd, --seconds >= 1 and --trace 0|1")
		return 2
	}
	in, err := Generate(*workload, *seed, *seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ltambench:", err)
		return 2
	}
	dir, err := filepath.Abs(filepath.Join(*work, *workload))
	if err == nil {
		_ = os.RemoveAll(dir)
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ltambench:", err)
		return 1
	}
	l := NewLive(in, *workload, *seconds, *bin, dir)
	if err := l.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "ltambench: live run:", err)
		return 1
	}
	// The decisions were counted as they were issued; each round's tally
	// and the Algorithm-1 sample are one check each.
	l.attempt(len(l.Acks) + 1)
	want, granted, err := Replay(in, l.Decisions)
	if err != nil {
		l.problem("replay: %v", err)
	} else {
		for _, p := range append(CheckRounds(l.Acks, want), CheckDecisions(l.Decisions, granted)...) {
			l.problem("%s", p)
		}
	}
	naive, err := NaiveAnswers(in, SampleSubjects(in))
	if err != nil {
		l.problem("naive answers: %v", err)
	} else {
		for _, p := range CheckAnswers(l.Served, naive) {
			l.problem("%s", p)
		}
	}
	metrics := EndToEnd(l)
	if *trace == 1 {
		// The daemons are stopped: the in-process stack may use every core,
		// as ltamd would.
		runtime.GOMAXPROCS(runtime.NumCPU())
		tr, err := Traced(in, l, filepath.Join(dir, "traced"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "ltambench: traced run:", err)
			return 1
		}
		metrics = PerLayer(l, tr)
	}
	for _, p := range l.Problems {
		fmt.Fprintln(os.Stderr, "ltambench: check failed:", p)
	}
	printTable(metrics)
	out, err := json.Marshal(Result{Correct: l.Failed == 0, Attempted: l.Attempted, Failed: l.Failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ltambench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// printTable lists the metrics by name with their units.
func printTable(m map[string]Metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

// EndToEnd assembles the end-to-end metrics of a live run. Every
// workload reports every metric; README.md gives each one's meaning per
// workload.
func EndToEnd(l *Live) map[string]Metric {
	m := map[string]Metric{
		"setup_s":               {median(l.SetupS), "s"},
		"ops_per_s":             {l.OpsS.Rate(), "1/s"},
		"write_p50_ms":          {l.Write.Quantile(0.50), "ms"},
		"write_p95_ms":          {l.Write.Quantile(0.95), "ms"},
		"decide_p50_us":         {l.Decide.Quantile(0.50), "us"},
		"decide_p95_us":         {l.Decide.Quantile(0.95), "us"},
		"inaccessible_p50_us":   {l.Inacc.Quantile(0.50), "us"},
		"inaccessible_p95_us":   {l.Inacc.Quantile(0.95), "us"},
		"rss_peak_mb":           {median(l.RSSMB), "MB"},
		"recovery_s":            {median(l.RecoveryS), "s"},
		"disk_bytes_per_record": {median(l.BytesPerRecord), "B/record"},
	}
	return m
}
