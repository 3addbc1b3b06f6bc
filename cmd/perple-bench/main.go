// perple-bench parses `go test -bench` output into a stable JSON summary
// so benchmark trajectories can be committed and diffed across PRs.
//
// Usage:
//
//	go test -run '^$' -bench 'BenchmarkSim|BenchmarkCount' -benchmem . |
//	    go run ./cmd/perple-bench -o BENCH_simcore.json
//
//	go test -run '^$' -bench '...' -benchtime=1x . |
//	    go run ./cmd/perple-bench -check BENCH_simcore.json -maxratio 3
//
// Every benchmark line becomes one entry: ns/op, B/op, allocs/op, any
// custom ReportMetric units, a derived iters_per_sec (1e9/ns_per_op, the
// benchmark-op rate), and the host shape the entry was measured under
// (num_cpu, gomaxprocs — the latter parsed from go test's -N name
// suffix, so a `-cpu 1,2,4,8` sweep records each point's true
// parallelism). When a benchmark appears under several GOMAXPROCS
// values, its entries are keyed "name/cpu=N" to keep the scaling curve's
// points distinct; a benchmark measured at a single value keeps its
// plain name, so ordinary runs produce the same keys as before. A key
// measured several times (go test -count N) records its median-ns/op
// sample, with the sample count and the ns/op range beside it.
//
// With -check, instead of writing a summary the tool compares each
// parsed entry's ns/op against the named baseline file and exits 1 if
// any benchmark regressed by more than -maxratio; benchmarks absent
// from the baseline are reported and skipped. Non-benchmark lines pass
// through untouched either way, so the tool can sit at the end of a
// pipe without hiding failures.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark's parsed result.
type Entry struct {
	N       int64   `json:"n"`
	NsPerOp float64 `json:"ns_per_op"`
	// Pointers distinguish a measured zero (the steady-state goal) from
	// a run without -benchmem, where the columns are absent entirely.
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	ItersPerSec float64            `json:"iters_per_sec"`
	NumCPU      int                `json:"num_cpu"`
	Gomaxprocs  int                `json:"gomaxprocs"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	// Samples, NsPerOpMin and NsPerOpMax describe a repeated key's
	// spread; a single-sample entry omits them.
	Samples    int     `json:"samples,omitempty"`
	NsPerOpMin float64 `json:"ns_per_op_min,omitempty"`
	NsPerOpMax float64 `json:"ns_per_op_max,omitempty"`
}

// Summary is the committed JSON document. The host block stamps the
// machine shape the numbers came from, so a diff across commits can
// tell a code regression from a different benchmark box.
type Summary struct {
	Note       string           `json:"note"`
	Go         string           `json:"go"`
	GOOS       string           `json:"goos"`
	GOARCH     string           `json:"goarch"`
	NumCPU     int              `json:"num_cpu"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Benchmarks map[string]Entry `json:"benchmarks"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

// parsed is one benchmark line before key resolution: the same base
// name may recur under different GOMAXPROCS in a -cpu sweep.
type parsed struct {
	base  string
	procs int
	e     Entry
}

func main() {
	out := flag.String("o", "BENCH_simcore.json", "output JSON path")
	note := flag.String("note", "go test -bench snapshot; see scripts/bench.sh", "free-form provenance note")
	check := flag.String("check", "", "baseline JSON to compare ns/op against instead of writing a summary")
	maxRatio := flag.Float64("maxratio", 3.0, "with -check: fail when ns/op exceeds baseline by this factor")
	flag.Parse()

	lines, err := parseStdin()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perple-bench: reading stdin:", err)
		os.Exit(1)
	}
	if len(lines) == 0 {
		fmt.Fprintln(os.Stderr, "perple-bench: no benchmark lines found on stdin")
		os.Exit(1)
	}
	benchmarks := resolveKeys(lines)

	if *check != "" {
		if !checkBaseline(*check, benchmarks, *maxRatio) {
			os.Exit(1)
		}
		return
	}

	sum := Summary{
		Note:       *note,
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchmarks: benchmarks,
	}
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perple-bench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perple-bench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "perple-bench: wrote %d benchmarks to %s\n", len(benchmarks), *out)
}

func parseStdin() ([]parsed, error) {
	var lines []parsed
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass through so the pipe stays readable
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		base, procs := splitCPUSuffix(m[1])
		n, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		e := Entry{N: n, NumCPU: runtime.NumCPU(), Gomaxprocs: procs}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				e.NsPerOp = v
			case "B/op":
				b := v
				e.BytesPerOp = &b
			case "allocs/op":
				a := v
				e.AllocsPerOp = &a
			default:
				if e.Metrics == nil {
					e.Metrics = map[string]float64{}
				}
				e.Metrics[unit] = v
			}
		}
		if e.NsPerOp > 0 {
			e.ItersPerSec = 1e9 / e.NsPerOp
		}
		lines = append(lines, parsed{base: base, procs: procs, e: e})
	}
	return lines, sc.Err()
}

// resolveKeys assigns each parsed line its summary key: the plain base
// name, or base/cpu=N when the run measured the benchmark under more
// than one GOMAXPROCS (a -cpu sweep). Lines sharing a key are samples
// of one benchmark; the entry is the median-ns/op sample (the lower
// middle one for an even count).
func resolveKeys(lines []parsed) map[string]Entry {
	procsSeen := map[string]map[int]bool{}
	for _, l := range lines {
		if procsSeen[l.base] == nil {
			procsSeen[l.base] = map[int]bool{}
		}
		procsSeen[l.base][l.procs] = true
	}
	samples := map[string][]Entry{}
	for _, l := range lines {
		key := l.base
		if len(procsSeen[l.base]) > 1 {
			key = fmt.Sprintf("%s/cpu=%d", l.base, l.procs)
		}
		samples[key] = append(samples[key], l.e)
	}
	benchmarks := make(map[string]Entry, len(samples))
	for key, es := range samples {
		if len(es) == 1 {
			benchmarks[key] = es[0]
			continue
		}
		sort.SliceStable(es, func(i, j int) bool { return es[i].NsPerOp < es[j].NsPerOp })
		e := es[(len(es)-1)/2]
		e.Samples = len(es)
		e.NsPerOpMin, e.NsPerOpMax = es[0].NsPerOp, es[len(es)-1].NsPerOp
		benchmarks[key] = e
	}
	return benchmarks
}

// checkBaseline compares new entries against the committed baseline and
// reports every benchmark whose ns/op exceeds baseline by more than
// maxRatio. A new key is looked up exactly and then as key/cpu=N, so a
// plain single-GOMAXPROCS smoke run still matches a committed -cpu
// sweep's curve point. Returns false when any regression was found.
func checkBaseline(path string, benchmarks map[string]Entry, maxRatio float64) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perple-bench:", err)
		return false
	}
	var base Summary
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "perple-bench: parsing %s: %v\n", path, err)
		return false
	}
	ok, compared := true, 0
	for key, e := range benchmarks {
		ref, found := base.Benchmarks[key]
		if !found {
			ref, found = base.Benchmarks[fmt.Sprintf("%s/cpu=%d", key, e.Gomaxprocs)]
		}
		if !found || ref.NsPerOp <= 0 {
			fmt.Fprintf(os.Stderr, "perple-bench: %s: no baseline, skipped\n", key)
			continue
		}
		compared++
		ratio := e.NsPerOp / ref.NsPerOp
		if ratio > maxRatio {
			fmt.Fprintf(os.Stderr, "perple-bench: REGRESSION %s: %.0f ns/op vs baseline %.0f (%.2fx > %.2fx)\n",
				key, e.NsPerOp, ref.NsPerOp, ratio, maxRatio)
			ok = false
		}
	}
	if compared == 0 {
		fmt.Fprintf(os.Stderr, "perple-bench: no benchmarks matched baseline %s\n", path)
		return false
	}
	if ok {
		fmt.Fprintf(os.Stderr, "perple-bench: %d benchmarks within %.2fx of %s\n", compared, maxRatio, path)
	}
	return ok
}

// splitCPUSuffix separates go test's -N GOMAXPROCS name suffix. go test
// omits the suffix when GOMAXPROCS is 1, so a bare name reports 1.
func splitCPUSuffix(name string) (string, int) {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name, 1
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil || n <= 0 {
		return name, 1
	}
	return name[:i], n
}
