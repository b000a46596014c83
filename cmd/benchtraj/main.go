// Command benchtraj is the perf-trajectory gate seeded by the ROADMAP: it
// compares a current sabench -json document against a committed baseline
// and fails (exit 1) when any cell regressed beyond the allowed factor —
// a p50 latency that grew past -factor times its baseline, or a
// throughput rate (proposes/sec, lookups/sec, ops/sec) that fell below
// baseline divided by -rate-factor. CI's bench-smoke job runs it on every
// push against bench/baseline-async.json, bench/baseline-waits.json,
// bench/baseline-arena.json and bench/baseline-obs.json, so a change that
// triples contended propose latency, craters arena serving throughput or
// regresses a lifecycle stage's latency attribution fails the build
// instead of silently rotting the trajectory.
//
// The check is deliberately trivial: tables are matched by title, rows by
// their identifying columns (everything that is not a measured quantity),
// and only the duration columns (p50, and the obs table's stage-p50 /
// stage-p95) and rate columns are gated. Cells below the noise
// floors are ignored — microsecond-scale latencies and near-idle rates
// vary more across machines than any regression they could hide — and
// rows present in only one document are reported but never fail the gate,
// so reshaping a table does not require lockstep baseline edits.
//
// Usage:
//
//	benchtraj -baseline bench/baseline-async.json -current bench-async.json
//	benchtraj -baseline old.json -current new.json -factor 2 -floor 500µs -rate-factor 2
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// doc mirrors internal/report's JSON shape.
type doc struct {
	Tables []table `json:"tables"`
}

type table struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// measuredColumns are result columns; everything else identifies a row.
var measuredColumns = map[string]bool{
	"p50": true, "p95": true, "proposes/sec": true, "wakeups": true,
	"spurious": true, "wait-total": true, "goroutines": true,
	"parked-peak": true, "lookups/sec": true, "ops/sec": true,
	"proposes": true, "steps": true, "scans": true, "wait": true,
	"mem-steps": true, "cas-retries": true,
	"submit-ns/prop": true, "ttfd": true, "ttld": true,
	"count": true, "stage-p50": true, "stage-p95": true,
}

// durationColumns are the gated latency columns: "p50" of the runtime
// tables plus the obs table's per-stage quantiles. Lower is better;
// cells below the -floor are noise.
var durationColumns = map[string]bool{
	"p50": true, "stage-p50": true, "stage-p95": true,
}

// rateColumns are the gated throughput columns: higher is better, so the
// regression direction is inverted relative to p50.
var rateColumns = map[string]bool{
	"proposes/sec": true, "lookups/sec": true, "ops/sec": true,
}

func main() {
	var (
		baselinePath = flag.String("baseline", "bench/baseline-async.json", "committed baseline JSON (sabench -json format)")
		currentPath  = flag.String("current", "", "current-run JSON to gate (sabench -json format)")
		factor       = flag.Float64("factor", 3, "fail when current p50 > factor × baseline p50")
		floor        = flag.Duration("floor", time.Millisecond, "ignore cells whose current p50 is below this (machine noise)")
		rateFactor   = flag.Float64("rate-factor", 3, "fail when current rate < baseline rate ÷ rate-factor")
		rateFloor    = flag.Float64("rate-floor", 1000, "ignore rate cells whose baseline is below this (ops per second)")
	)
	flag.Usage = func() {
		fmt.Fprint(flag.CommandLine.Output(), `usage: benchtraj -baseline FILE -current FILE [-factor N] [-floor D] [-rate-factor N] [-rate-floor R]

benchtraj gates the repository's perf trajectory: it fails (exit 1) when a
current sabench -json run shows, for any row the two documents share, a p50
latency more than -factor times its committed baseline or a throughput rate
(proposes/sec, lookups/sec, ops/sec) below the baseline divided by
-rate-factor. Latency cells below the -floor and rate cells whose baseline
is below -rate-floor are ignored as machine noise; unmatched rows are
reported only.

Flags:
`)
		flag.PrintDefaults()
	}
	flag.Parse()
	if *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchtraj: -current is required")
		flag.Usage()
		os.Exit(2)
	}
	baseline, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtraj: %v\n", err)
		os.Exit(2)
	}
	current, err := load(*currentPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtraj: %v\n", err)
		os.Exit(2)
	}
	lim := limits{factor: *factor, floor: *floor, rateFactor: *rateFactor, rateFloor: *rateFloor}
	regressions, compared := compare(baseline, current, lim)
	fmt.Printf("benchtraj: compared %d cells against %s (factor %g, floor %v, rate-factor %g, rate-floor %g)\n",
		compared, *baselinePath, *factor, *floor, *rateFactor, *rateFloor)
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Println("REGRESSION: " + r)
		}
		os.Exit(1)
	}
	fmt.Println("benchtraj: trajectory OK")
}

// limits bundles the gate thresholds.
type limits struct {
	factor     float64
	floor      time.Duration
	rateFactor float64
	rateFloor  float64
}

func load(path string) (doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return doc{}, err
	}
	var d doc
	if err := json.Unmarshal(data, &d); err != nil {
		return doc{}, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// compare gates every shared row's p50 and throughput rates and returns the
// offending cells.
func compare(baseline, current doc, lim limits) (regressions []string, compared int) {
	curTables := make(map[string]table, len(current.Tables))
	for _, t := range current.Tables {
		curTables[t.Title] = t
	}
	for _, base := range baseline.Tables {
		gated := gatedColumns(base.Columns)
		if len(gated) == 0 {
			continue
		}
		cur, ok := curTables[base.Title]
		if !ok {
			fmt.Printf("note: table %q missing from current run\n", base.Title)
			continue
		}
		curRows := make(map[string][]string, len(cur.Rows))
		for _, row := range cur.Rows {
			curRows[rowKey(cur.Columns, row)] = row
		}
		for _, row := range base.Rows {
			key := rowKey(base.Columns, row)
			curRow, ok := curRows[key]
			if !ok {
				fmt.Printf("note: row [%s] of %q missing from current run\n", key, base.Title)
				continue
			}
			for _, col := range gated {
				curIdx := columnIndex(cur.Columns, col)
				if curIdx < 0 || curIdx >= len(curRow) {
					continue // column dropped from the current table shape
				}
				baseCell, curCell := row[columnIndex(base.Columns, col)], curRow[curIdx]
				if msg, counted := gateCell(col, baseCell, curCell, lim); counted {
					compared++
					if msg != "" {
						regressions = append(regressions,
							fmt.Sprintf("%s [%s]: %s", base.Title, key, msg))
					}
				}
			}
		}
	}
	return regressions, compared
}

// gatedColumns returns the gate-relevant columns present in the table:
// the duration columns (p50, stage-p50, stage-p95) plus every known rate
// column.
func gatedColumns(columns []string) []string {
	var out []string
	for _, c := range columns {
		if durationColumns[c] || rateColumns[c] {
			out = append(out, c)
		}
	}
	return out
}

// gateCell applies the gate for one column kind to a baseline/current cell
// pair. It returns a non-empty message on regression, and counted=false
// when the cells are unparsable or below the noise floor.
func gateCell(col, baseCell, curCell string, lim limits) (msg string, counted bool) {
	if durationColumns[col] {
		baseD, err1 := time.ParseDuration(baseCell)
		curD, err2 := time.ParseDuration(curCell)
		if err1 != nil || err2 != nil {
			return "", false // non-duration cells are outside the gate
		}
		if curD < lim.floor || baseD <= 0 {
			return "", true
		}
		if float64(curD) > lim.factor*float64(baseD) {
			return fmt.Sprintf("%s %v → %v (>%gx)", col, baseD, curD, lim.factor), true
		}
		return "", true
	}
	baseR, err1 := strconv.ParseFloat(baseCell, 64)
	curR, err2 := strconv.ParseFloat(curCell, 64)
	if err1 != nil || err2 != nil {
		return "", false
	}
	if baseR < lim.rateFloor {
		return "", true
	}
	if curR < baseR/lim.rateFactor {
		return fmt.Sprintf("%s %.0f → %.0f (<1/%gx)", col, baseR, curR, lim.rateFactor), true
	}
	return "", true
}

func columnIndex(columns []string, name string) int {
	for i, c := range columns {
		if c == name {
			return i
		}
	}
	return -1
}

// rowKey joins a row's identifying cells (the non-measured columns).
func rowKey(columns []string, row []string) string {
	var parts []string
	for i, c := range columns {
		if i < len(row) && !measuredColumns[c] {
			parts = append(parts, c+"="+row[i])
		}
	}
	return strings.Join(parts, " ")
}
