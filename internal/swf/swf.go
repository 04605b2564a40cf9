package swf

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Job is one SWF record. Field comments give the 1-based SWF field number.
type Job struct {
	JobNumber     int     // 1: unique job id
	SubmitTime    int64   // 2: seconds since trace start
	WaitTime      int64   // 3: seconds in queue, -1 if unknown
	RunTime       float64 // 4: wall-clock run seconds, -1 if unknown
	AllocProcs    int     // 5: number of allocated processors
	AvgCPUTime    float64 // 6: average CPU seconds used per processor
	UsedMemory    float64 // 7: average used memory (KB) per processor
	ReqProcs      int     // 8: requested processors
	ReqTime       float64 // 9: requested wall-clock seconds
	ReqMemory     float64 // 10: requested memory (KB) per processor
	Status        int     // 11: see Status* constants
	UserID        int     // 12
	GroupID       int     // 13
	Executable    int     // 14: application number
	QueueNumber   int     // 15
	PartitionID   int     // 16
	PrecedingJob  int     // 17: job this one depends on, -1 if none
	ThinkTimePrec int64   // 18: seconds between preceding job end and submit
}

// SWF job status values (field 11).
const (
	StatusFailed          = 0
	StatusCompleted       = 1
	StatusPartialExecuted = 2 // partial execution, to be continued
	StatusLastPartial     = 3 // last partial execution, completed
	StatusPartialFailed   = 4 // last partial execution, failed
	StatusCancelled       = 5
)

// Completed reports whether the job finished successfully (the "completed
// successfully" criterion of the paper's job selection).
func (j *Job) Completed() bool {
	return j.Status == StatusCompleted || j.Status == StatusLastPartial
}

// Trace is a parsed SWF file: the header comment lines (verbatim, with the
// leading ';' stripped) and the job records in file order.
type Trace struct {
	Header []string
	Jobs   []Job
}

// ParseError reports a malformed SWF line with its position.
type ParseError struct {
	Line int    // 1-based line number in the input
	Text string // the offending line (possibly truncated)
	Err  error
}

func (e *ParseError) Error() string {
	t := e.Text
	if len(t) > 80 {
		t = t[:80] + "…"
	}
	return fmt.Sprintf("swf: line %d: %v: %q", e.Line, e.Err, t)
}

func (e *ParseError) Unwrap() error { return e.Err }

// Parse reads a complete SWF trace from r. Blank lines are ignored; header
// lines (prefix ';') are collected verbatim; every other line must be a
// valid 18-field record or Parse fails with a *ParseError identifying it.
func Parse(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	t := &Trace{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ";") {
			t.Header = append(t.Header, strings.TrimSpace(strings.TrimPrefix(line, ";")))
			continue
		}
		job, err := parseLine(line)
		if err != nil {
			return nil, &ParseError{Line: lineNo, Text: line, Err: err}
		}
		t.Jobs = append(t.Jobs, job)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("swf: reading input: %w", err)
	}
	return t, nil
}

func parseLine(line string) (Job, error) {
	fields := strings.Fields(line)
	if len(fields) != 18 {
		return Job{}, fmt.Errorf("expected 18 fields, got %d", len(fields))
	}
	var (
		j   Job
		err error
	)
	geti := func(s string, name string) int {
		if err != nil {
			return 0
		}
		var v int
		v, err = strconv.Atoi(s)
		if err != nil {
			err = fmt.Errorf("field %s: %w", name, err)
		}
		return v
	}
	geti64 := func(s string, name string) int64 {
		if err != nil {
			return 0
		}
		var v int64
		v, err = strconv.ParseInt(s, 10, 64)
		if err != nil {
			err = fmt.Errorf("field %s: %w", name, err)
		}
		return v
	}
	getf := func(s string, name string) float64 {
		if err != nil {
			return 0
		}
		var v float64
		v, err = strconv.ParseFloat(s, 64)
		if err != nil {
			err = fmt.Errorf("field %s: %w", name, err)
		}
		return v
	}
	j.JobNumber = geti(fields[0], "job-number")
	j.SubmitTime = geti64(fields[1], "submit-time")
	j.WaitTime = geti64(fields[2], "wait-time")
	j.RunTime = getf(fields[3], "run-time")
	j.AllocProcs = geti(fields[4], "alloc-procs")
	j.AvgCPUTime = getf(fields[5], "avg-cpu-time")
	j.UsedMemory = getf(fields[6], "used-memory")
	j.ReqProcs = geti(fields[7], "req-procs")
	j.ReqTime = getf(fields[8], "req-time")
	j.ReqMemory = getf(fields[9], "req-memory")
	j.Status = geti(fields[10], "status")
	j.UserID = geti(fields[11], "user-id")
	j.GroupID = geti(fields[12], "group-id")
	j.Executable = geti(fields[13], "executable")
	j.QueueNumber = geti(fields[14], "queue")
	j.PartitionID = geti(fields[15], "partition")
	j.PrecedingJob = geti(fields[16], "preceding-job")
	j.ThinkTimePrec = geti64(fields[17], "think-time")
	if err != nil {
		return Job{}, err
	}
	if j.Status < -1 || j.Status > 5 {
		return Job{}, fmt.Errorf("status %d outside [-1,5]", j.Status)
	}
	return j, nil
}

// Write emits the trace in SWF text form: header lines first (prefixed with
// "; "), then one line per job.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	for _, h := range t.Header {
		if _, err := fmt.Fprintf(bw, "; %s\n", h); err != nil {
			return err
		}
	}
	for i := range t.Jobs {
		if err := writeJob(bw, &t.Jobs[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeJob(w io.Writer, j *Job) error {
	_, err := fmt.Fprintf(w, "%d %d %d %s %d %s %s %d %s %s %d %d %d %d %d %d %d %d\n",
		j.JobNumber, j.SubmitTime, j.WaitTime, ftoa(j.RunTime),
		j.AllocProcs, ftoa(j.AvgCPUTime), ftoa(j.UsedMemory),
		j.ReqProcs, ftoa(j.ReqTime), ftoa(j.ReqMemory),
		j.Status, j.UserID, j.GroupID, j.Executable,
		j.QueueNumber, j.PartitionID, j.PrecedingJob, j.ThinkTimePrec)
	return err
}

// ftoa renders SWF floating fields: integers print without a decimal point
// (the archive's own convention), everything else with two decimals.
// The integrality test is exact by construction.
func ftoa(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'f', 2, 64)
}
