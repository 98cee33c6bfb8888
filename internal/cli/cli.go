// Package cli is the run-wiring layer the commands share: parsing of
// dialect and workload names, the repeatable name=value and name=min:max
// knob flags, the observability flag group (-v, -trace, -metrics-out,
// -report, -serve, -serve-linger) and Fatalf/Check. Every parser fails closed:
// malformed or non-finite input is an error naming the bad value.
package cli

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"github.com/hunter-cdb/hunter/internal/simdb"
	"github.com/hunter-cdb/hunter/internal/workload"
)

// Fatalf prints the message to stderr and exits with status 1.
func Fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// Check exits through Fatalf when err is not nil.
func Check(err error) {
	if err != nil {
		Fatalf("%v", err)
	}
}

// ParseDialect resolves a -db name.
func ParseDialect(name string) (simdb.Dialect, error) {
	switch name {
	case "mysql":
		return simdb.MySQL, nil
	case "postgres", "postgresql":
		return simdb.Postgres, nil
	}
	return 0, fmt.Errorf("unknown dialect %q", name)
}

// Workload resolves a -workload name. With compress, production becomes
// its clustered kernel (returned too, for reporting) and the synthetic
// benchmarks, whose mix is already compact, measure at a quarter of the
// full stress-test effort.
func Workload(name string, compress bool) (*workload.Profile, *workload.Kernel, error) {
	var p *workload.Profile
	switch name {
	case "tpcc":
		p = workload.TPCC()
	case "sysbench-ro":
		p = workload.SysbenchRO()
	case "sysbench-wo":
		p = workload.SysbenchWO()
	case "sysbench-rw":
		p = workload.SysbenchRW()
	case "production":
		if compress {
			k := workload.CompressProduction()
			return k.Profile, k, nil
		}
		p = workload.Production()
	default:
		return nil, nil, fmt.Errorf("unknown workload %q", name)
	}
	if compress {
		p = p.WithMeasureFraction(0.25)
	}
	return p, nil, nil
}

// Assign is one name=value knob argument.
type Assign struct {
	Name  string
	Value float64
}

// ParseAssign parses name=value; the value must be a finite number.
func ParseAssign(s string) (Assign, error) {
	name, val, err := cutName(s, "name=value")
	if err != nil {
		return Assign{}, err
	}
	v, err := parseFinite(val)
	if err != nil {
		return Assign{}, err
	}
	return Assign{Name: name, Value: v}, nil
}

// Range is one name=min:max knob argument.
type Range struct {
	Name   string
	Lo, Hi float64
}

// ParseRange parses name=min:max; both bounds must be finite numbers.
func ParseRange(s string) (Range, error) {
	name, span, err := cutName(s, "name=min:max")
	if err != nil {
		return Range{}, err
	}
	loS, hiS, ok := strings.Cut(span, ":")
	if !ok {
		return Range{}, fmt.Errorf("%q: want name=min:max", s)
	}
	lo, err := parseFinite(loS)
	if err != nil {
		return Range{}, err
	}
	hi, err := parseFinite(hiS)
	if err != nil {
		return Range{}, err
	}
	return Range{Name: name, Lo: lo, Hi: hi}, nil
}

// cutName splits a knob argument at its first '='; the name must not be
// empty.
func cutName(s, form string) (name, rest string, err error) {
	name, rest, ok := strings.Cut(s, "=")
	if !ok {
		return "", "", fmt.Errorf("%q: want %s", s, form)
	}
	if name == "" {
		return "", "", fmt.Errorf("%q: empty knob name", s)
	}
	return name, rest, nil
}

func parseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad value %q", s)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("non-finite value %q", s)
	}
	return v, nil
}

// Repeated is a repeatable flag. Each value is parsed as it is set, so a
// malformed one stops flag parsing with an error naming it.
type Repeated[T any] struct {
	Parse  func(string) (T, error)
	Values []T
}

func (r *Repeated[T]) String() string { return fmt.Sprint(r.Values) }

func (r *Repeated[T]) Set(s string) error {
	v, err := r.Parse(s)
	if err != nil {
		return err
	}
	r.Values = append(r.Values, v)
	return nil
}
