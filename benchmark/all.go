package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// setResult is one pass over every workload: per workload, the result
// line of the untraced and of the traced run.
type setResult struct {
	EndToEnd map[string]resultLine `json:"end_to_end"`
	PerLayer map[string]resultLine `json:"per_layer"`
}

// allResult is what -all writes to <out>/result.json.
type allResult struct {
	Machine machineStamp `json:"machine"`
	Seed    int64        `json:"seed"`
	Seconds float64      `json:"seconds"`
	Sets    []setResult  `json:"sets"`
}

// runAll runs every workload in its own process, untraced then traced,
// sets times over; even sets run the workloads in reverse order so drift
// of the machine does not line up with one workload. It returns the exit
// code: non-zero when an output check failed anywhere or, with two or more
// sets, when an end-to-end metric moved by more than its bound between the
// first and the last set.
func runAll(seed int64, seconds float64, sets int, out string) int {
	stamp := stampMachine()
	fmt.Printf("machine: nproc=%d GOMAXPROCS=%d %s cpu=%q git=%s load1=%.2f\n",
		stamp.NumCPU, stamp.GOMAXPROCS, stamp.GoVersion, stamp.CPUModel, stamp.GitSHA, stamp.Load1)
	if stamp.NumCPU < 2 {
		fmt.Println("WARNING: fewer than 2 CPUs: client and server share one core, latencies include their contention")
	}
	all := allResult{Machine: stamp, Seed: seed, Seconds: seconds}
	exit := 0
	for set := range max(sets, 1) {
		res := setResult{EndToEnd: map[string]resultLine{}, PerLayer: map[string]resultLine{}}
		order := append([]workloadDef(nil), workloads...)
		if set%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			for _, trace := range []int{0, 1} {
				line, err := runChild(w.Name, seed, seconds, trace, out)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
					exit = 1
					continue
				}
				if !line.Correct {
					exit = 1
				}
				if trace == 0 {
					res.EndToEnd[w.Name] = line
				} else {
					res.PerLayer[w.Name] = line
				}
			}
		}
		all.Sets = append(all.Sets, res)
	}
	if !printSets(all) {
		exit = 1
	}
	if data, err := json.MarshalIndent(all, "", " "); err == nil {
		path := filepath.Join(out, "result.json")
		if err := os.WriteFile(path, data, 0o644); err == nil {
			fmt.Println("result:", path)
		}
	}
	return exit
}

// runChild runs one workload in a child process, passes its report
// through and parses the result line.
func runChild(workload string, seed int64, seconds float64, trace int, out string) (resultLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return resultLine{}, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-out", out)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return resultLine{}, err
	}
	text := strings.TrimRight(stdout.String(), "\n")
	cut := strings.LastIndexByte(text, '\n')
	fmt.Println(text[:max(cut, 0)])
	var line resultLine
	return line, json.Unmarshal([]byte(text[cut+1:]), &line)
}

// printSets prints every end-to-end metric of every workload, the sets
// side by side, and reports whether the first and the last set agree
// within each metric's bound.
func printSets(all allResult) bool {
	agree := true
	fmt.Printf("\n%-20s %-16s %-6s", "workload", "metric", "unit")
	for i := range all.Sets {
		fmt.Printf(" %12s", fmt.Sprintf("set %d", i+1))
	}
	fmt.Println("   worse by  bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			fmt.Printf("%-20s %-16s %-6s", w.Name, d.Name, d.Unit)
			var vals []float64
			for _, s := range all.Sets {
				v := s.EndToEnd[w.Name].Metrics[d.Name].Value
				vals = append(vals, v)
				fmt.Printf(" %12.5g", v)
			}
			if len(vals) > 1 && vals[0] != 0 {
				worse := (vals[len(vals)-1] - vals[0]) / vals[0]
				if d.Better == "higher" {
					worse = -worse
				}
				verdict := ""
				if worse > d.Bound {
					verdict, agree = "  SETS DISAGREE", false
				}
				fmt.Printf("   %+7.2f%%  %.0f%%%s", worse*100, d.Bound*100, verdict)
			}
			fmt.Println()
		}
		for i, s := range all.Sets {
			e, p := s.EndToEnd[w.Name], s.PerLayer[w.Name]
			fmt.Printf("%-20s fail_share set %d: %d of %d untraced, %d of %d traced\n", w.Name, i+1, e.Failed, e.Attempted, p.Failed, p.Attempted)
		}
	}
	return agree
}
