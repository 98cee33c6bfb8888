package cli

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"time"

	"github.com/hunter-cdb/hunter/internal/obsv"
	"github.com/hunter-cdb/hunter/internal/telemetry"
	"github.com/hunter-cdb/hunter/internal/tuner"
)

// Flags selects the observability flags a command accepts.
type Flags uint8

const (
	Verbose Flags = 1 << iota // -v
	Trace                     // -trace
	Metrics                   // -metrics-out
	Report                    // -report: the recorder's JSON run report
	Serve                     // -serve and -serve-linger
)

// Observe is the observability flag group and the run wiring it implies:
// the -v logger, the telemetry recorder, the live introspection server and
// the exported artifacts. Everything it prints goes to stderr, so stdout is
// byte-identical with any of its flags on or off.
type Observe struct {
	verbose                         bool
	traceOut, metricsOut, reportOut string
	serve                           string
	linger                          time.Duration

	// Logger, Recorder and Status are set by Open; each is nil when its
	// flags are off. Status is a nil interface, not a typed nil, when not
	// serving, so it can be assigned to a StatusSink field directly.
	Logger   *slog.Logger
	Recorder *telemetry.Recorder
	Status   tuner.StatusSink
	srv      *obsv.Server
}

// Register defines the selected flags on fs.
func (o *Observe) Register(fs *flag.FlagSet, which Flags) {
	if which&Verbose != 0 {
		fs.BoolVar(&o.verbose, "v", false, "stream structured progress logs to stderr")
	}
	if which&Trace != 0 {
		fs.StringVar(&o.traceOut, "trace", "", "write the span trace to this file (.json = Chrome trace_event format, else JSONL)")
	}
	if which&Metrics != 0 {
		fs.StringVar(&o.metricsOut, "metrics-out", "", "write the counter/gauge exposition to this file")
	}
	if which&Report != 0 {
		fs.StringVar(&o.reportOut, "report", "", "write the run report (JSON) to this file")
	}
	if which&Serve != 0 {
		fs.StringVar(&o.serve, "serve", "", "serve the live introspection plane (/metrics /status /sessions /events) on this address, e.g. 127.0.0.1:8377")
		fs.DurationVar(&o.linger, "serve-linger", 0, "keep the introspection server up this long after the run finishes (for scraping final state)")
	}
}

// Open builds the logger, the recorder (when an export or the server
// needs one, or needRecorder is set) and the status registry the server
// reads. It starts and prints nothing, so a command can open first and
// validate the rest of its input against the wiring.
func (o *Observe) Open(needRecorder bool) {
	if o.verbose {
		o.Logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelInfo}))
	}
	if needRecorder || o.traceOut != "" || o.metricsOut != "" || o.reportOut != "" || o.serve != "" {
		o.Recorder = telemetry.New()
	}
	if o.serve != "" {
		reg := obsv.NewRegistry()
		o.Status, o.srv = reg, obsv.NewServer(o.Recorder, reg)
	}
}

// Serve starts the introspection server when -serve is set and prints its
// banner. Call it after Open once all input is validated, and defer Close.
func (o *Observe) Serve() error {
	if o.srv == nil {
		return nil
	}
	addr, err := o.srv.Start(o.serve)
	if err != nil {
		return fmt.Errorf("introspection server: %w", err)
	}
	fmt.Fprintf(os.Stderr, "introspection plane on http://%s (/metrics /status /sessions /events)\n", addr)
	return nil
}

// Close keeps the introspection server up for -serve-linger, then stops
// it. No-op when not serving.
func (o *Observe) Close() {
	if o.srv == nil {
		return
	}
	if addr := o.srv.Addr(); addr != "" && o.linger > 0 {
		fmt.Fprintf(os.Stderr, "introspection server lingering %v on http://%s\n", o.linger, addr)
		time.Sleep(o.linger)
	}
	o.srv.Close()
}

// Export snapshots the runtime and fork-join gauges and writes the
// -trace, -metrics-out and -report artifacts that were asked for. No-op
// without a recorder.
func (o *Observe) Export() error {
	rec := o.Recorder
	if rec == nil {
		return nil
	}
	rec.CaptureParallel()
	rec.CaptureRuntime()
	trace := rec.WriteTrace
	if strings.HasSuffix(o.traceOut, ".json") {
		trace = rec.WriteChromeTrace
	}
	if err := WriteFile(o.traceOut, trace); err != nil {
		return err
	}
	if err := WriteFile(o.metricsOut, rec.WriteText); err != nil {
		return err
	}
	return WriteFile(o.reportOut, rec.WriteReport)
}

// WriteFile creates path and fills it with emit. An empty path writes
// nothing.
func WriteFile(path string, emit func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
