package swf

import (
	"strconv"
	"strings"
)

// Structured access to SWF header metadata. The archive's headers are
// "; Key: value" comment lines; the parser keeps them verbatim in
// Trace.Header, and this file interprets the standard fields
// (https://www.cs.huji.ac.il/labs/parallel/workload/swf.html).

// HeaderField returns the value of the first header line of the form
// "Key: value" matching key case-insensitively, and whether it was found.
func (t *Trace) HeaderField(key string) (string, bool) {
	for _, h := range t.Header {
		k, v, ok := strings.Cut(h, ":")
		if !ok {
			continue
		}
		if strings.EqualFold(strings.TrimSpace(k), key) {
			return strings.TrimSpace(v), true
		}
	}
	return "", false
}

// HeaderInt parses an integer header field.
func (t *Trace) HeaderInt(key string) (int64, bool) {
	v, ok := t.HeaderField(key)
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(strings.Fields(v)[0], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Meta is the standard header metadata of an SWF trace. Zero values mean
// "not present in the header".
type Meta struct {
	Version       string
	Computer      string
	Installation  string
	MaxJobs       int64
	MaxRecords    int64
	MaxNodes      int64
	MaxProcs      int64
	UnixStartTime int64
	TimeZone      string
	Note          []string
}

// Meta extracts the standard header fields.
func (t *Trace) Meta() Meta {
	var m Meta
	m.Version, _ = t.HeaderField("Version")
	m.Computer, _ = t.HeaderField("Computer")
	m.Installation, _ = t.HeaderField("Installation")
	m.MaxJobs, _ = t.HeaderInt("MaxJobs")
	m.MaxRecords, _ = t.HeaderInt("MaxRecords")
	m.MaxNodes, _ = t.HeaderInt("MaxNodes")
	m.MaxProcs, _ = t.HeaderInt("MaxProcs")
	m.UnixStartTime, _ = t.HeaderInt("UnixStartTime")
	m.TimeZone, _ = t.HeaderField("TimeZoneString")
	for _, h := range t.Header {
		if k, v, ok := strings.Cut(h, ":"); ok && strings.EqualFold(strings.TrimSpace(k), "Note") {
			m.Note = append(m.Note, strings.TrimSpace(v))
		}
	}
	return m
}
