// Command bench is the repository's benchmark spine: five named
// workloads, six end-to-end metrics per workload, and per-layer
// attribution measured from outside the layers, through the public
// functions of internal/*.
//
// Three ways to run it (bench/run.sh builds and forwards its arguments):
//
//	run.sh -seed 42 [-trace 1]      every workload, each in its own child
//	                                process; writes out/result.json
//	run.sh --workload storm --seed 1 --seconds 10 --trace 0
//	                                one workload; the last line of output
//	                                is the result as one JSON object
//	run.sh -compare a.json b.json   verdict per (metric, workload)
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	var (
		name     = flag.String("workload", "", "run this one workload and print its result as the last line")
		seed     = flag.Uint64("seed", 42, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", runSeconds, "how long each workload measures")
		trace    = flag.Int("trace", 0, "1 adds the traced pass that produces the per-layer metrics")
		outDir   = flag.String("out", "bench/out", "directory for result.json and trace-<workload>.json")
		detail   = flag.String("detail", "", "also write the workload's full result to this file")
		compare  = flag.Bool("compare", false, "compare two result.json files: -compare a.json b.json")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json as the metric catalogue defines it")
	)
	flag.Parse()
	var err error
	switch {
	case *manifest:
		err = writeManifest(os.Stdout)
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result files")
			break
		}
		var regressed bool
		if regressed, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && regressed {
			os.Exit(1)
		}
	case *name != "":
		err = runOne(*name, *seed, *seconds, *trace != 0, *outDir, *detail)
	default:
		err = runSuite(*seed, *seconds, *trace != 0, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
}

// runOne measures one workload in this process and prints every metric
// by name, then the result object the acceptance driver reads.
func runOne(name string, seed uint64, seconds float64, trace bool, outDir, detail string) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if trace {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
	}
	res, err := runWorkload(w, seed, fullSizes(), time.Duration(seconds*float64(time.Second)), trace, outDir)
	if err != nil {
		return err
	}
	printResult(os.Stdout, res)
	if detail != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(detail, data, 0o644); err != nil {
			return err
		}
	}

	type driverMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]driverMetric)
	for name, v := range res.EndToEnd {
		metrics[name] = driverMetric{v.Value, v.Unit}
	}
	for name, v := range res.PerLayer {
		metrics[name] = driverMetric{v.Value, v.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed verification", name, res.Failed, res.Attempted)
	}
	return nil
}

// printResult prints every metric of a run by name with its unit and
// clock.
func printResult(out io.Writer, res *workloadResult) {
	fmt.Fprintf(out, "workload %s  seed %d  %d closed-loop clients  %s\n", res.Workload, res.Seed, res.Clients, res.Shape)
	fmt.Fprintf(out, "  %d timed repetitions (too few samples for a tail percentile: median and quartiles only); %d attempted, %d failed\n",
		res.TimedReps, res.Attempted, res.Failed)
	row := func(name string, v metricValue) {
		fmt.Fprintf(out, "  %-36s %16.6g %-6s %-5s", name, v.Value, v.Unit, v.Clock)
		if s := v.Samples; s != nil {
			fmt.Fprintf(out, "  n=%d q1=%.6g q3=%.6g min=%.6g max=%.6g", s.N, s.Q1, s.Q3, s.Min, s.Max)
		}
		fmt.Fprintln(out)
	}
	for _, d := range endToEnd {
		if v, ok := res.EndToEnd[d.Name]; ok {
			row(d.Name, v)
		}
	}
	if res.PerLayer != nil {
		for _, d := range perLayer() {
			row(d.Name, res.PerLayer[d.Name])
		}
	}
}

// environment records what the numbers were measured on.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
}

func currentEnvironment() environment {
	env := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: measureProcs,
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// suiteResult is result.json: one full run of every workload.
type suiteResult struct {
	Environment environment                `json:"environment"`
	Seed        uint64                     `json:"seed"`
	Seconds     float64                    `json:"seconds"`
	Workloads   map[string]*workloadResult `json:"workloads"`
	// Claim is what a change asserts it improved. The benchmark itself
	// claims nothing.
	Claim any `json:"claim"`
}

// runSuite runs every workload, each in a child process of its own so
// that it starts from a clean heap and reports its own resident-set peak.
func runSuite(seed uint64, seconds float64, trace bool, outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	suite := suiteResult{
		Environment: currentEnvironment(), Seed: seed, Seconds: seconds,
		Workloads: make(map[string]*workloadResult),
	}
	child := func(name string, traced int) (*workloadResult, error) {
		detail := filepath.Join(outDir, fmt.Sprintf("run-%s-%d.json", name, traced))
		cmd := exec.Command(self,
			"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
			"-trace", fmt.Sprint(traced), "-out", outDir, "-detail", detail)
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		err := cmd.Run()
		// All but the child's last line — the driver's result object — is
		// the report.
		text := strings.TrimRight(stdout.String(), "\n")
		if i := strings.LastIndexByte(text, '\n'); i >= 0 {
			fmt.Println(text[:i])
		}
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", name, err)
		}
		data, err := os.ReadFile(detail)
		if err != nil {
			return nil, err
		}
		res := new(workloadResult)
		return res, json.Unmarshal(data, res)
	}
	for _, w := range workloads {
		res, err := child(w.name, 0)
		if err != nil {
			return err
		}
		if trace {
			traced, err := child(w.name, 1)
			if err != nil {
				return err
			}
			res.PerLayer = traced.PerLayer
		}
		suite.Workloads[w.name] = res
	}
	data, err := json.MarshalIndent(suite, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "result.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (GOMAXPROCS=%d, nproc=%d, %s)\n", path,
		suite.Environment.GOMAXPROCS, suite.Environment.NumCPU, suite.Environment.GoVersion)
	return nil
}

// writeManifest renders BENCHMARK.json from the catalogue, in the shape
// the acceptance driver prescribes.
func writeManifest(out io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer() {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, betterOf(d)})
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(m)
}
