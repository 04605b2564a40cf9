package tablewriter

import (
	"strings"
	"testing"
)

// render returns the table's ASCII rendering.
func render(tb *Table) string {
	var sb strings.Builder
	_ = tb.Render(&sb) // strings.Builder writes never fail
	return sb.String()
}

func TestRenderAlignment(t *testing.T) {
	tb := New("name", "value")
	tb.AddRow("a", "1")
	tb.AddRow("longer", "22")
	out := render(tb)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected 4 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Fatalf("header missing: %q", lines[0])
	}
	if !strings.Contains(lines[1], "----") {
		t.Fatalf("separator missing: %q", lines[1])
	}
	// All lines should align: "longer" defines the first column width.
	for _, ln := range lines[2:] {
		if len(ln) < len("longer") {
			t.Fatalf("row too short for column width: %q", ln)
		}
	}
}

func TestTitle(t *testing.T) {
	tb := New("x")
	tb.SetTitle("Fig 1")
	tb.AddRow("1")
	out := render(tb)
	if !strings.HasPrefix(out, "Fig 1\n") {
		t.Fatalf("title not first line:\n%s", out)
	}
}

func TestShortRowPadded(t *testing.T) {
	tb := New("a", "b", "c")
	tb.AddRow("only")
	out := render(tb)
	if !strings.Contains(out, "only") {
		t.Fatal("row content lost")
	}
}

func TestLongRowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("overlong row did not panic")
		}
	}()
	New("a").AddRow("1", "2")
}

func TestRenderCSV(t *testing.T) {
	tb := New("a", "b")
	tb.SetTitle("t")
	tb.AddRow("1", "hello, world")
	var sb strings.Builder
	if err := tb.RenderCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "# t\n") {
		t.Fatalf("missing title comment:\n%s", out)
	}
	if !strings.Contains(out, `"hello, world"`) {
		t.Fatalf("comma cell not quoted:\n%s", out)
	}
	if !strings.Contains(out, "a,b\n") {
		t.Fatalf("header row missing:\n%s", out)
	}
}

func TestFtoa(t *testing.T) {
	cases := []struct {
		v    float64
		p    int
		want string
	}{
		{1.5, 3, "1.5"},
		{1.0, 3, "1"},
		{1.230, 2, "1.23"},
		{100, 0, "100"},
		{-2.500, 2, "-2.5"},
	}
	for _, c := range cases {
		if got := Ftoa(c.v, c.p); got != c.want {
			t.Fatalf("Ftoa(%v,%d) = %q, want %q", c.v, c.p, got, c.want)
		}
	}
	if Itoa(42) != "42" {
		t.Fatal("Itoa wrong")
	}
}
