package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// The Standard Workload Format (SWF) of the Parallel Workloads Archive is a
// line-oriented text format: lines starting with ';' are header comments,
// data lines carry 18 whitespace-separated integer fields. The fields this
// reproduction consumes are:
//
//	 1  job number
//	 2  submit time (s)
//	 4  run time (s)
//	 5  number of allocated processors
//	 7  used memory (KB per processor)
//	 9  requested time (s)   — the user's runtime estimate
//	10  requested memory (KB per processor)
//	11  status (1 completed, 0 failed, 5 cancelled)
//
// Missing values are encoded as -1 in SWF.
const swfFields = 18

// ParseSWF reads an SWF trace. Malformed lines produce an error naming the
// line and field: a wrong field count, a non-numeric field, a value of
// 2^53 or more in magnitude, a negative value other than the -1 missing
// marker, or a duplicate job number each
// reject the trace rather than silently normalizing it. Header comment
// lines are skipped. Memory fields are converted from KB-per-processor to
// total GB. When the used-memory field is missing (-1), the requested
// memory is substituted; when the requested time is missing, the actual
// runtime is used as the estimate.
func ParseSWF(r io.Reader) ([]Job, error) {
	var jobs []Job
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	seen := map[int]int{} // job ID -> first line it appeared on
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, ";") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != swfFields {
			return nil, fmt.Errorf("workload: swf line %d has %d fields, want %d", lineNo, len(fields), swfFields)
		}
		get := func(i int) (float64, error) {
			v, err := strconv.ParseFloat(fields[i-1], 64)
			if err != nil {
				return 0, fmt.Errorf("workload: swf line %d field %d: %w", lineNo, i, err)
			}
			// SWF fields are integers. Past 2^53 a float64 no longer holds
			// each one exactly, and near 2^63 one wraps when stored or
			// written back as an int; NaN is no integer at all.
			if !(math.Abs(v) < 1<<53) {
				return 0, fmt.Errorf("workload: swf line %d field %d: %g is out of range", lineNo, i, v)
			}
			return v, nil
		}
		// SWF encodes a missing value as exactly -1; any other negative is
		// not a marker, it is a damaged trace, and clamping it to zero
		// would silently change the workload being replayed.
		check := func(i int, v float64, what string) error {
			if v < 0 && v != -1 {
				return fmt.Errorf("workload: swf line %d field %d: negative %s %g (only -1 marks a missing value)", lineNo, i, what, v)
			}
			return nil
		}
		var j Job
		var err error
		var f float64

		if f, err = get(1); err != nil {
			return nil, err
		}
		if f < 0 {
			return nil, fmt.Errorf("workload: swf line %d field 1: negative job ID %g", lineNo, f)
		}
		j.ID = int(f)
		if first, dup := seen[j.ID]; dup {
			return nil, fmt.Errorf("workload: swf line %d: duplicate job ID %d (first at line %d)", lineNo, j.ID, first)
		}
		seen[j.ID] = lineNo
		if j.Submit, err = get(2); err != nil {
			return nil, err
		}
		if err = check(2, j.Submit, "submit time"); err != nil {
			return nil, err
		}
		if j.RunTime, err = get(4); err != nil {
			return nil, err
		}
		if err = check(4, j.RunTime, "run time"); err != nil {
			return nil, err
		}
		if f, err = get(5); err != nil {
			return nil, err
		}
		if err = check(5, f, "processor count"); err != nil {
			return nil, err
		}
		j.Cores = int(f)
		usedMemKB, err := get(7)
		if err != nil {
			return nil, err
		}
		if err = check(7, usedMemKB, "used memory"); err != nil {
			return nil, err
		}
		if j.EstimatedRunTime, err = get(9); err != nil {
			return nil, err
		}
		if err = check(9, j.EstimatedRunTime, "requested time"); err != nil {
			return nil, err
		}
		reqMemKB, err := get(10)
		if err != nil {
			return nil, err
		}
		if err = check(10, reqMemKB, "requested memory"); err != nil {
			return nil, err
		}
		if f, err = get(11); err != nil {
			return nil, err
		}
		j.Status = int(f)

		// Normalize SWF missing-value markers.
		if j.RunTime < 0 {
			j.RunTime = 0
		}
		if j.EstimatedRunTime < 0 {
			j.EstimatedRunTime = j.RunTime
		}
		if j.Cores < 0 {
			j.Cores = 0
		}
		memKB := usedMemKB
		if memKB < 0 {
			memKB = reqMemKB
		}
		if memKB < 0 {
			memKB = 0
		}
		// KB per processor -> total GB.
		j.MemoryGB = memKB / 1024 / 1024 * float64(max(j.Cores, 1))
		if j.Submit < 0 {
			j.Submit = 0
		}
		jobs = append(jobs, j)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: reading swf: %w", err)
	}
	return jobs, nil
}

// WriteSWF serializes jobs in SWF. Fields this package does not model are
// written as -1 per the SWF convention. The memory fields are converted
// back to KB per processor.
func WriteSWF(w io.Writer, jobs []Job, header string) error {
	bw := bufio.NewWriter(w)
	if header != "" {
		for _, line := range strings.Split(strings.TrimRight(header, "\n"), "\n") {
			if _, err := fmt.Fprintf(bw, "; %s\n", line); err != nil {
				return err
			}
		}
	}
	for _, j := range jobs {
		memKBPerCore := -1.0
		if j.Cores > 0 {
			memKBPerCore = j.MemoryGB / float64(j.Cores) * 1024 * 1024
		}
		// 18 fields: id submit wait run procs avgcpu usedmem reqprocs
		// reqtime reqmem status uid gid exe queue partition precede think
		if _, err := fmt.Fprintf(bw, "%d %d -1 %d %d -1 %d %d %d %d %d -1 -1 -1 -1 -1 -1 -1\n",
			j.ID, int(j.Submit), int(j.RunTime), j.Cores,
			int(memKBPerCore), j.Cores, int(j.EstimatedRunTime), int(memKBPerCore), j.Status); err != nil {
			return err
		}
	}
	return bw.Flush()
}
