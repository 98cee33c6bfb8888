package cli

import (
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hunter-cdb/hunter/internal/simdb"
)

func TestParseDialect(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want simdb.Dialect
		ok   bool
	}{
		{"mysql", simdb.MySQL, true},
		{"postgres", simdb.Postgres, true},
		{"postgresql", simdb.Postgres, true},
		{"oracle", 0, false},
		{"MySQL", 0, false},
		{"", 0, false},
	} {
		got, err := ParseDialect(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("ParseDialect(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "unknown dialect") {
			t.Errorf("ParseDialect(%q) error %q does not say unknown dialect", tc.in, err)
		}
	}
}

func TestWorkload(t *testing.T) {
	for _, tc := range []struct {
		in       string
		compress bool
		name     string
		fraction float64
		kernel   bool
		ok       bool
	}{
		{"tpcc", false, "tpcc", 0, false, true},
		{"sysbench-ro", false, "sysbench-ro", 0, false, true},
		{"sysbench-wo", false, "sysbench-wo", 0, false, true},
		{"sysbench-rw", false, "sysbench-rw", 0, false, true},
		{"tpcc", true, "tpcc", 0.25, false, true},
		{"production", true, "", 0, true, true},
		{"tpc-h", false, "", 0, false, false},
		{"", true, "", 0, false, false},
	} {
		p, k, err := Workload(tc.in, tc.compress)
		if (err == nil) != tc.ok {
			t.Errorf("Workload(%q, %v) error = %v, want ok=%v", tc.in, tc.compress, err, tc.ok)
			continue
		}
		if !tc.ok {
			continue
		}
		if (k != nil) != tc.kernel || (k != nil && k.Profile != p) {
			t.Errorf("Workload(%q, %v) kernel = %v, want kernel=%v", tc.in, tc.compress, k, tc.kernel)
		}
		if tc.name != "" && (!strings.HasPrefix(p.Name, tc.name) || p.MeasureFraction != tc.fraction) {
			t.Errorf("Workload(%q, %v) = %s at fraction %v, want %s at %v",
				tc.in, tc.compress, p.Name, p.MeasureFraction, tc.name, tc.fraction)
		}
	}
}

// assignCases and rangeCases are the table rows and the fuzz seeds.
var assignCases = []struct {
	in   string
	want Assign
	ok   bool
}{
	{"innodb_buffer_pool_size=1073741824", Assign{"innodb_buffer_pool_size", 1 << 30}, true},
	{"x=-2.5e3", Assign{"x", -2500}, true},
	{"x=1=2", Assign{}, false},
	{"innodb_buffer_pool_size", Assign{}, false},
	{"x=", Assign{}, false},
	{"x=abc", Assign{}, false},
	{"x=NaN", Assign{}, false},
	{"x=nan", Assign{}, false},
	{"x=Inf", Assign{}, false},
	{"x=+Inf", Assign{}, false},
	{"x=-Inf", Assign{}, false},
	{"x=1e400", Assign{}, false},
	{"=1", Assign{}, false},
	{"", Assign{}, false},
}

var rangeCases = []struct {
	in   string
	want Range
	ok   bool
}{
	{"innodb_buffer_pool_size=1073741824:17179869184", Range{"innodb_buffer_pool_size", 1 << 30, 1 << 34}, true},
	{"x=-1:1", Range{"x", -1, 1}, true},
	{"x=1", Range{}, false},
	{"x", Range{}, false},
	{"x=1:2:3", Range{}, false},
	{"x=:1", Range{}, false},
	{"x=NaN:1", Range{}, false},
	{"x=0:NaN", Range{}, false},
	{"x=-Inf:1", Range{}, false},
	{"x=0:+Inf", Range{}, false},
	{"x=0:Inf", Range{}, false},
	{"=0:1", Range{}, false},
	{"", Range{}, false},
}

func TestParseAssign(t *testing.T) {
	for _, tc := range assignCases {
		got, err := ParseAssign(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseAssign(%q) = %+v, %v; want %+v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

func TestParseRange(t *testing.T) {
	for _, tc := range rangeCases {
		got, err := ParseRange(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseRange(%q) = %+v, %v; want %+v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

func TestRepeatedFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fixes := Repeated[Assign]{Parse: ParseAssign}
	ranges := Repeated[Range]{Parse: ParseRange}
	fs.Var(&fixes, "fix", "")
	fs.Var(&ranges, "range", "")
	if err := fs.Parse([]string{"-fix", "a=1", "-range", "b=2:3", "-fix", "c=4"}); err != nil {
		t.Fatal(err)
	}
	if got := fixes.String(); got != "[{a 1} {c 4}]" {
		t.Fatalf("fixes = %s", got)
	}
	if got := ranges.String(); got != "[{b 2 3}]" {
		t.Fatalf("ranges = %s", got)
	}
	for _, bad := range [][]string{{"-fix", "a=NaN"}, {"-range", "b=2:Inf"}, {"-fix", "=1"}} {
		if err := fs.Parse(bad); err == nil || !strings.Contains(err.Error(), bad[1]) {
			t.Errorf("Parse(%q) error = %v, want one naming %q", bad, err, bad[1])
		}
	}
}

func FuzzParseAssign(f *testing.F) {
	for _, tc := range assignCases {
		f.Add(tc.in)
	}
	f.Fuzz(func(t *testing.T, s string) {
		a, err := ParseAssign(s)
		if err != nil {
			return
		}
		if a.Name == "" || math.IsNaN(a.Value) || math.IsInf(a.Value, 0) {
			t.Fatalf("ParseAssign(%q) accepted %+v", s, a)
		}
	})
}

func FuzzParseRange(f *testing.F) {
	for _, tc := range rangeCases {
		f.Add(tc.in)
	}
	f.Fuzz(func(t *testing.T, s string) {
		r, err := ParseRange(s)
		if err != nil {
			return
		}
		for _, v := range []float64{r.Lo, r.Hi} {
			if r.Name == "" || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("ParseRange(%q) accepted %+v", s, r)
			}
		}
	})
}

func TestObserveExport(t *testing.T) {
	dir := t.TempDir()
	var o Observe
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	o.Register(fs, Verbose|Trace|Metrics|Report|Serve)
	metrics, trace := filepath.Join(dir, "m.txt"), filepath.Join(dir, "t.json")
	if err := fs.Parse([]string{"-metrics-out", metrics, "-trace", trace}); err != nil {
		t.Fatal(err)
	}
	o.Open(false)
	if o.Recorder == nil || o.Logger != nil || o.Status != nil {
		t.Fatalf("Open: recorder %v logger %v status %v", o.Recorder, o.Logger, o.Status)
	}
	if err := o.Serve(); err != nil {
		t.Fatal(err)
	}
	o.Close()
	if err := o.Export(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []string{"parallel.workers", "runtime.goroutines"} {
		if !strings.Contains(string(raw), g) {
			t.Errorf("metrics exposition lacks %s", g)
		}
	}
	if raw, err := os.ReadFile(trace); err != nil || !strings.Contains(string(raw), "traceEvents") {
		t.Errorf("chrome trace: %v %.80q", err, raw)
	}

	// With no export and no server the recorder stays off unless asked for.
	var off Observe
	off.Open(false)
	if off.Recorder != nil {
		t.Fatal("recorder built with every flag off")
	}
	if err := off.Export(); err != nil {
		t.Fatal(err)
	}
	off.Open(true)
	if off.Recorder == nil {
		t.Fatal("needRecorder did not build a recorder")
	}
}
