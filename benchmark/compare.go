package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

// compareMain compares two sets of --out records of untraced runs,
// workload by workload, against BENCHMARK.json's bounds. It exits 1
// when any metric reads worse.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the end-to-end metrics and bounds")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: benchmark compare [-spec BENCHMARK.json] A.json... -- B.json...")
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var sides [2][]string
	side := 0
	for _, a := range fs.Args() {
		if a == "--" && side == 0 {
			side = 1
			continue
		}
		sides[side] = append(sides[side], a)
	}
	if len(sides[0]) == 0 || len(sides[1]) == 0 {
		fs.Usage()
		return 2
	}
	spec, err := readBenchSpec(*specPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark compare: %v\n", err)
		return 2
	}
	var runs [2]map[string][]*record
	for i, files := range sides {
		runs[i] = map[string][]*record{}
		for _, f := range files {
			var rec record
			data, err := os.ReadFile(f)
			if err == nil {
				err = json.Unmarshal(data, &rec)
			}
			if err != nil || rec.Workload == "" {
				fmt.Fprintf(stderr, "benchmark compare: %s is not a --out run record: %v\n", f, err)
				return 2
			}
			runs[i][rec.Workload] = append(runs[i][rec.Workload], &rec)
		}
	}
	var names []string
	for w := range runs[0] {
		if _, ok := runs[1][w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tchange\tbound\tverdict")
	worse := 0
	for _, w := range names {
		for _, m := range spec.EndToEnd {
			a, b := values(runs[0][w], m.Name), values(runs[1][w], m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := verdict(a, b, m.Better == "higher", m.Bound)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%.0f%%\t%s\n", w, m.Name, m.Unit,
				describe(a), describe(b), 100*(median(b)/median(a)-1), 100*m.Bound, v)
		}
	}
	tw.Flush()
	if worse > 0 {
		return 1
	}
	return 0
}

func values(recs []*record, name string) []float64 {
	var xs []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func describe(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", median(xs), q1, q3, len(xs))
}

// verdict judges B against A: "within" the bound, "better" or "worse"
// beyond it, or "unresolved" when either side's quartile spread is
// wider than the bound — unless every run of B beats (or loses to)
// every run of A.
func verdict(a, b []float64, higherBetter bool, bound float64) string {
	ma, mb := median(a), median(b)
	loss := (mb - ma) / ma // positive = worse, for lower-is-better
	if higherBetter {
		loss = -loss
	}
	if spread(a) > bound || spread(b) > bound {
		beats := func(x, y float64) bool { return higherBetter && x > y || !higherBetter && x < y }
		allBetter, allWorse := true, true
		for _, x := range b {
			for _, y := range a {
				allBetter = allBetter && beats(x, y)
				allWorse = allWorse && beats(y, x)
			}
		}
		switch {
		case allBetter:
			return "better"
		case allWorse:
			return "worse"
		}
		return "unresolved"
	}
	switch {
	case loss > bound:
		return "worse"
	case -loss > bound:
		return "better"
	}
	return "within"
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// quartiles are Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), the first and third of them.
func quartiles(xs []float64) (q1, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d) < 2 {
		return d[0], d[0]
	}
	ld := len(d)
	q := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
