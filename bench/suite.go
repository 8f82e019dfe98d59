package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// Suite mode: every workload, untraced then traced, each in a fresh
// process of this same binary (`go run` built it once), so no workload
// inherits another's heap, caches or obs counters. The suite adds the
// correctness gates that span processes: the traced and untraced runs of
// a workload must agree on their output digests, and every workload that
// produces crawl 0's dataset must produce the same bytes.

// setRun is one workload run inside a set file.
type setRun struct {
	Workload  string                 `json:"workload"`
	Trace     int                    `json:"trace"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runSet is what -out writes and -compare reads.
type runSet struct {
	Env     environment `json:"env"`
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	Runs    []setRun    `json:"runs"`
}

// runChild runs one workload in a fresh process, passes its output
// through, and returns its parsed result line and digests.
func runChild(exe, workload string, seed int64, seconds float64, trace int) (*setRun, map[string]string, error) {
	cmd := exec.Command(exe,
		"--workload", workload,
		"--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(trace))
	var stdout bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("workload %s (trace %d): %w", workload, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return nil, nil, fmt.Errorf("workload %s (trace %d): last output line is not a result: %w", workload, trace, err)
	}
	digests := map[string]string{}
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, "# sha256 "); ok {
			if k, v, ok := strings.Cut(rest, "="); ok {
				digests[k] = v
			}
		}
	}
	return &setRun{Workload: workload, Trace: trace, Attempted: line.Attempted, Failed: line.Failed, Metrics: line.Metrics}, digests, nil
}

func runSuite(seed int64, seconds float64, runs int, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	set := runSet{Env: currentEnvironment(), Seed: seed, Seconds: seconds}
	for n := 0; n < runs; n++ {
		crawl0 := map[string]string{} // workload -> crawl 0 dataset digest
		for _, w := range workloads {
			var untraced map[string]string
			for trace := 0; trace <= 1; trace++ {
				run, digests, err := runChild(exe, w.Name, seed, seconds, trace)
				if err != nil {
					return err
				}
				set.Runs = append(set.Runs, *run)
				if trace == 0 {
					untraced = digests
					continue
				}
				for k, v := range digests {
					if untraced[k] != v {
						return fmt.Errorf("workload %s: traced and untraced runs disagree on %s (sha256 %s vs %s)", w.Name, k, v, untraced[k])
					}
				}
			}
			if d, ok := untraced["crawl0"]; ok {
				crawl0[w.Name] = d
			}
		}
		var names []string
		for name := range crawl0 {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names[1:] {
			if crawl0[name] != crawl0[names[0]] {
				return fmt.Errorf("crawl 0 dataset differs between %s (sha256 %s) and %s (sha256 %s)", names[0], crawl0[names[0]], name, crawl0[name])
			}
		}
		fmt.Printf("# suite pass %d of %d: crawl 0 dataset identical across %s\n", n+1, runs, strings.Join(names, ", "))
	}
	if out == "" {
		return nil
	}
	data, err := json.MarshalIndent(&set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}
