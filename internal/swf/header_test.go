package swf

import (
	"strings"
	"testing"

	"gridvo/internal/xrand"
)

const headerTrace = `; Version: 2.2
; Computer: LLNL Atlas
; Installation: Lawrence Livermore National Lab
; MaxJobs: 43778
; MaxNodes: 1152
; MaxProcs: 9216 (1152 nodes x 8)
; UnixStartTime: 1162890797
; TimeZoneString: US/Pacific
; Note: cleaned version
; Note: second note
; not-a-field-line
1 0 0 1 1 1 0 1 1 -1 1 1 1 1 1 1 -1 -1
`

func parseHeaderTrace(t *testing.T) *Trace {
	t.Helper()
	tr, err := Parse(strings.NewReader(headerTrace))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestHeaderField(t *testing.T) {
	tr := parseHeaderTrace(t)
	v, ok := tr.HeaderField("Computer")
	if !ok || v != "LLNL Atlas" {
		t.Fatalf("Computer = %q, %v", v, ok)
	}
	// Case-insensitive lookup.
	if _, ok := tr.HeaderField("computer"); !ok {
		t.Fatal("lookup not case-insensitive")
	}
	if _, ok := tr.HeaderField("NoSuchKey"); ok {
		t.Fatal("missing key reported found")
	}
}

func TestHeaderInt(t *testing.T) {
	tr := parseHeaderTrace(t)
	n, ok := tr.HeaderInt("MaxJobs")
	if !ok || n != 43778 {
		t.Fatalf("MaxJobs = %d, %v", n, ok)
	}
	// Trailing commentary after the number is tolerated.
	n, ok = tr.HeaderInt("MaxProcs")
	if !ok || n != 9216 {
		t.Fatalf("MaxProcs = %d, %v", n, ok)
	}
	if _, ok := tr.HeaderInt("Computer"); ok {
		t.Fatal("non-numeric field parsed as int")
	}
}

func TestMeta(t *testing.T) {
	m := parseHeaderTrace(t).Meta()
	if m.Version != "2.2" || m.Computer != "LLNL Atlas" ||
		m.Installation != "Lawrence Livermore National Lab" {
		t.Fatalf("meta = %+v", m)
	}
	if m.MaxJobs != 43778 || m.MaxNodes != 1152 || m.MaxProcs != 9216 {
		t.Fatalf("meta counts = %+v", m)
	}
	if m.TimeZone != "US/Pacific" {
		t.Fatalf("timezone = %q", m.TimeZone)
	}
	if len(m.Note) != 2 || m.Note[0] != "cleaned version" {
		t.Fatalf("notes = %v", m.Note)
	}
}

func TestGeneratedTraceMeta(t *testing.T) {
	tr := GenerateAtlas(xrand.New(1), GenOptions{NumJobs: 10})
	m := tr.Meta()
	if m.Version != "2.2" {
		t.Fatalf("generated version = %q", m.Version)
	}
	if m.MaxJobs != 10 {
		t.Fatalf("generated MaxJobs = %d", m.MaxJobs)
	}
}
