package telemetry

import (
	"bufio"
	"encoding/csv"
	"io"
	"os"
	"strconv"
)

// appendFloat formats v the way all telemetry emitters do: shortest
// round-trippable decimal, cycle-counts as integers elsewhere.
func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// Run is one run's epoch series plus the label values that identify
// it among the other runs of a file (e.g. config and benchmark names).
type Run struct {
	Labels []string
	Series *Series
}

// WriteFiles writes runs, in order, as CSV to csvPath and as JSON
// lines to jsonlPath; an empty path is skipped. cols names the label
// columns, which lead every CSV row and every JSONL object. Runs with
// different memory organizations expose different metric columns, so
// the CSV repeats its header whenever a run's columns differ from the
// previous run's. The first create, write, flush or close error is
// returned.
func WriteFiles(csvPath, jsonlPath string, cols []string, runs []Run) error {
	if csvPath != "" {
		err := writeFile(csvPath, func(w io.Writer) error {
			cw := csv.NewWriter(w)
			var prev *Series
			for _, r := range runs {
				header := prev == nil || !prev.SameCols(r.Series)
				if err := r.Series.WriteCSV(cw, header, cols, r.Labels); err != nil {
					return err
				}
				prev = r.Series
			}
			cw.Flush()
			return cw.Error()
		})
		if err != nil {
			return err
		}
	}
	if jsonlPath != "" {
		return writeFile(jsonlPath, func(w io.Writer) error {
			for _, r := range runs {
				if err := r.Series.WriteJSONL(w, cols, r.Labels); err != nil {
					return err
				}
			}
			return nil
		})
	}
	return nil
}

// writeFile creates path and hands write a buffered writer over it,
// then flushes and closes, keeping the first error.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = write(w)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
