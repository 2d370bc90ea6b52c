// Command pcsictl is the CLI client for pcsid.
//
// Usage:
//
//	pcsictl [-addr host:port] <command> [args...]
//
// Run it with no arguments for the command table — one row per protocol
// operation, printed from the same table main dispatches on (README.md
// embeds it). Three commands run locally, without a daemon, and share one
// flag surface (-seed, -o, -faultrate — identical names, defaults, and
// exit codes everywhere): trace runs an experiment traced and exports
// Chrome JSON (or validates one with -verify), chaos seed-sweeps under
// fault injection and exits 1 on an invariant violation, dash renders the
// telemetry dashboard and JSON timeline (byte-identical per
// experiment+seed).
//
// The exported trace file loads directly in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing; the trace command also
// prints a per-run critical-path report.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/pcsinet"
	"repro/internal/trace"
)

// verb is one RPC subcommand: its synopsis (<required> [optional]), one
// line of help, the number of required arguments, and the call it makes.
type verb struct {
	name, args, doc string
	min             int
	run             func(cl *pcsinet.Client, args []string) error
}

// printToken adapts a call that returns a token.
func printToken(tok string, err error) error {
	if err == nil {
		fmt.Println(tok)
	}
	return err
}

// payload is a data argument: the literal, or stdin for "-".
func payload(arg string) ([]byte, error) {
	if arg == "-" {
		return io.ReadAll(os.Stdin)
	}
	return []byte(arg), nil
}

// opt returns args[i], or "" when absent.
func opt(args []string, i int) string {
	if i < len(args) {
		return args[i]
	}
	return ""
}

func create(ephemeral bool) func(*pcsinet.Client, []string) error {
	return func(cl *pcsinet.Client, a []string) error {
		kind := opt(a, 0)
		if kind == "" {
			kind = "regular"
		}
		return printToken(cl.Create(kind, opt(a, 1), opt(a, 2), ephemeral))
	}
}

// verbs is the command table: main dispatches on it and usage prints it.
var verbs = []verb{
	{name: "create", args: "[kind] [consistency] [mutability]", doc: "mint an object, print its token", run: create(false)},
	{name: "create-ephemeral", args: "[kind]", doc: "mint a node-local object", run: create(true)},
	{name: "put", args: "<token> <data>", doc: "write payload (- for stdin)", min: 2, run: func(cl *pcsinet.Client, a []string) error {
		data, err := payload(a[1])
		if err != nil {
			return err
		}
		return cl.Put(a[0], data)
	}},
	{name: "get", args: "<token>", doc: "print payload", min: 1, run: func(cl *pcsinet.Client, a []string) error {
		data, err := cl.Get(a[0])
		if err == nil {
			fmt.Printf("%s\n", data)
		}
		return err
	}},
	{name: "append", args: "<token> <data>", doc: "append payload (- for stdin)", min: 2, run: func(cl *pcsinet.Client, a []string) error {
		data, err := payload(a[1])
		if err != nil {
			return err
		}
		return cl.Append(a[0], data)
	}},
	{name: "freeze", args: "<token> <level>", doc: "MUTABLE|APPEND_ONLY|FIXED_SIZE|IMMUTABLE", min: 2, run: func(cl *pcsinet.Client, a []string) error {
		return cl.Freeze(a[0], a[1])
	}},
	{name: "stat", args: "<token>", doc: "print metadata", min: 1, run: func(cl *pcsinet.Client, a []string) error {
		info, err := cl.Stat(a[0])
		if err != nil {
			return err
		}
		for _, k := range []string{"kind", "size", "version", "mutability"} {
			fmt.Printf("%-10s %s\n", k, info[k])
		}
		return nil
	}},
	{name: "attenuate", args: "<token> <rights>", doc: "derive a narrowed token, e.g. read|write", min: 2, run: func(cl *pcsinet.Client, a []string) error {
		return printToken(cl.Attenuate(a[0], a[1]))
	}},
	{name: "drop", args: "<token>", doc: "release the reference", min: 1, run: func(cl *pcsinet.Client, a []string) error {
		return cl.Drop(a[0])
	}},
	{name: "mkns", doc: "create a namespace, print its token and its root's", run: func(cl *pcsinet.Client, a []string) error {
		ns, root, err := cl.NewNamespace()
		if err == nil {
			fmt.Printf("namespace %s\nroot      %s\n", ns, root)
		}
		return err
	}},
	{name: "createat", args: "<ns> <path> <kind>", doc: "create at path", min: 3, run: func(cl *pcsinet.Client, a []string) error {
		return printToken(cl.CreateAt(a[0], a[1], a[2]))
	}},
	{name: "open", args: "<ns> <path> <rights>", doc: "resolve path to a token", min: 3, run: func(cl *pcsinet.Client, a []string) error {
		return printToken(cl.Open(a[0], a[1], a[2]))
	}},
	{name: "ls", args: "<ns> [path]", doc: "list entries", min: 1, run: func(cl *pcsinet.Client, a []string) error {
		names, err := cl.List(a[0], opt(a, 1))
		for _, n := range names {
			fmt.Println(n)
		}
		return err
	}},
	{name: "rm", args: "<ns> <path>", doc: "remove entry", min: 2, run: func(cl *pcsinet.Client, a []string) error {
		return cl.Remove(a[0], a[1])
	}},
	{name: "invoke", args: "<fn> [-i tok,...] [-o tok,...] [body]", doc: "call a function on input/output tokens", min: 1, run: invoke},
	{name: "socksend", args: "<token> <end> <data>", doc: "enqueue a message at a socket's client|server end", min: 3, run: func(cl *pcsinet.Client, a []string) error {
		data, err := payload(a[2])
		if err != nil {
			return err
		}
		return cl.SockSend(a[0], a[1], data)
	}},
	{name: "sockrecv", args: "<token> <end>", doc: "dequeue the message arriving at that end", min: 2, run: func(cl *pcsinet.Client, a []string) error {
		msg, err := cl.SockRecv(a[0], a[1])
		if err == nil {
			fmt.Printf("%s\n", msg)
		}
		return err
	}},
	{name: "sockclose", args: "<token>", doc: "close a socket object", min: 1, run: func(cl *pcsinet.Client, a []string) error {
		return cl.SockClose(a[0])
	}},
	{name: "stats", doc: "deployment counters", run: func(cl *pcsinet.Client, a []string) error {
		stats, err := cl.Stats()
		keys := make([]string, 0, len(stats))
		for k := range stats {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("%-12s %s\n", k, stats[k])
		}
		return err
	}},
}

// local commands run the experiment harness in-process; no daemon needed.
var local = map[string]func(args []string){"trace": traceCmd, "chaos": chaosCmd, "dash": dashCmd}

// errUsage is returned by a verb whose arguments do not parse.
var errUsage = errors.New("bad arguments")

func invoke(cl *pcsinet.Client, a []string) error {
	fn, rest := a[0], a[1:]
	var inputs, outputs []string
	var body []byte
	for len(rest) > 0 {
		switch {
		case rest[0] == "-i" && len(rest) > 1:
			inputs, rest = strings.Split(rest[1], ","), rest[2:]
		case rest[0] == "-o" && len(rest) > 1:
			outputs, rest = strings.Split(rest[1], ","), rest[2:]
		case rest[0] == "-i" || rest[0] == "-o":
			return errUsage
		default:
			body, rest = []byte(rest[0]), rest[1:]
		}
	}
	return cl.Invoke(fn, inputs, outputs, body)
}

// usageText renders the command table.
func usageText() string {
	var b strings.Builder
	b.WriteString("usage: pcsictl [-addr host:port] <command> [args...]\n\ncommands:\n")
	for _, v := range verbs {
		fmt.Fprintf(&b, "  %-46s %s\n", strings.TrimSpace(v.name+" "+v.args), v.doc)
	}
	b.WriteString("\nlocal commands (no daemon; -h lists each one's flags):\n  trace, chaos, dash <experiment> [flags]\n")
	return b.String()
}

func usage() {
	fmt.Fprint(os.Stderr, usageText())
	os.Exit(2)
}

func main() {
	args := os.Args[1:]
	addr := "127.0.0.1:7433"
	if len(args) >= 2 && args[0] == "-addr" {
		addr = args[1]
		args = args[2:]
	}
	if len(args) == 0 {
		usage()
	}
	if run, ok := local[args[0]]; ok {
		run(args[1:])
		return
	}
	for _, v := range verbs {
		if v.name != args[0] {
			continue
		}
		if len(args)-1 < v.min {
			usage()
		}
		cl, err := pcsinet.Dial(addr)
		if err != nil {
			fatal(err)
		}
		defer cl.Close()
		if err := v.run(cl, args[1:]); err == errUsage {
			usage()
		} else if err != nil {
			fatal(err)
		}
		return
	}
	usage()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "pcsictl: %v\n", err)
	os.Exit(1)
}

// harnessFlags is the shared flag surface of the local harness commands
// (trace, chaos, dash): the experiment ID is accepted before or after the
// flags, and -seed, -o, and -faultrate are spelled, defaulted, and
// documented identically everywhere. Command-specific flags register on FS
// before ParseExp. All parse errors and missing-experiment cases exit 2;
// runtime failures exit 1 via fatal.
type harnessFlags struct {
	FS        *flag.FlagSet
	Seed      *int64
	Out       *string
	FaultRate *float64
}

func newHarnessFlags(name, seedUsage, outUsage string, defaultRate float64, usage ...string) *harnessFlags {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	fs.Usage = func() {
		for _, l := range usage {
			fmt.Fprintln(os.Stderr, l)
		}
		fs.PrintDefaults()
	}
	return &harnessFlags{
		FS:        fs,
		Seed:      fs.Int64("seed", 1, seedUsage),
		Out:       fs.String("o", "", outUsage),
		FaultRate: fs.Float64("faultrate", defaultRate, "stochastic fault injection rate (0 = off)"),
	}
}

// ParseExp parses args and returns the experiment ID, which may appear
// before or after the flags ("" when absent).
func (h *harnessFlags) ParseExp(args []string) string {
	var exp string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		exp, args = args[0], args[1:]
	}
	h.FS.Parse(args) //nolint:errcheck // ExitOnError
	if exp == "" && h.FS.NArg() > 0 {
		exp = h.FS.Arg(0)
	}
	return exp
}

// RequireExp is ParseExp for commands where the experiment is mandatory:
// a missing ID prints usage and exits 2, like any other parse error.
func (h *harnessFlags) RequireExp(args []string) string {
	exp := h.ParseExp(args)
	if exp == "" {
		h.FS.Usage()
		os.Exit(2)
	}
	return exp
}

// ActivateFaults turns stochastic fault injection on when -faultrate is
// positive. The returned cleanup is safe to defer either way.
func (h *harnessFlags) ActivateFaults() func() {
	if *h.FaultRate <= 0 {
		return func() {}
	}
	s := fault.Activate(fault.Spec{
		Rates: fault.Uniform(*h.FaultRate),
		Retry: fault.DefaultPolicy(),
	})
	return s.Deactivate
}

// OutWriter opens the -o file for writing, or returns stdout when unset.
// The cleanup is safe to defer either way.
func (h *harnessFlags) OutWriter() (io.Writer, func()) {
	if *h.Out == "" {
		return os.Stdout, func() {}
	}
	f, err := os.Create(*h.Out)
	if err != nil {
		fatal(err)
	}
	return f, func() { f.Close() } //nolint:errcheck
}

// traceCmd implements `pcsictl trace`: run one experiment with the span
// tracer on and export the Chrome trace_event JSON, or (with -verify)
// validate a previously exported file.
func traceCmd(args []string) {
	h := newHarnessFlags("trace",
		"simulation seed", "write trace JSON to this file (default stdout)", 0,
		"usage: pcsictl trace <experiment> [-seed N] [-o file] [-faultrate R]",
		"       pcsictl trace -verify <file>")
	verify := h.FS.String("verify", "", "validate an exported trace file instead of running")
	exp := h.ParseExp(args)

	if *verify != "" {
		if err := verifyTrace(*verify); err != nil {
			fatal(err)
		}
		fmt.Printf("%s: ok\n", *verify)
		return
	}
	if exp == "" {
		h.FS.Usage()
		os.Exit(2)
	}
	// Faults and retries show up as instants on the "fault" track.
	defer h.ActivateFaults()()
	_, data, err := experiments.RunTraced(exp, *h.Seed)
	if err != nil {
		fatal(err)
	}
	w, done := h.OutWriter()
	if err := trace.Export(w, data); err != nil {
		fatal(err)
	}
	done()
	// The critical-path report goes to stderr so stdout stays pure JSON.
	for _, run := range data.Runs {
		rep := trace.CriticalPath(run)
		if len(rep.Chain) == 0 {
			continue
		}
		rep.Render(os.Stderr)
	}
	if *h.Out != "" {
		fmt.Fprintf(os.Stderr, "trace written to %s (load in Perfetto or chrome://tracing)\n", *h.Out)
	}
}

// chaosCmd implements `pcsictl chaos`: sweep an experiment across seeds
// under deterministic fault injection, render per-seed outcomes (violated
// seeds carry their flight-recorder dump), and exit nonzero if any
// invariant was violated. Identical invocations produce byte-identical
// output.
func chaosCmd(args []string) {
	h := newHarnessFlags("chaos",
		"first seed of the sweep", "write the report to this file (default stdout)", 0.05,
		"usage: pcsictl chaos <experiment> [-seed S] [-o file] [-faultrate R] [-seeds N] [-noretry]")
	seeds := h.FS.Int("seeds", 5, "number of consecutive seeds to sweep")
	noretry := h.FS.Bool("noretry", false, "disable the default retry policy")
	exp := h.RequireExp(args)
	rep, err := experiments.RunChaos(experiments.ChaosConfig{
		Exp:       exp,
		Seeds:     *seeds,
		BaseSeed:  *h.Seed,
		FaultRate: *h.FaultRate,
		NoRetry:   *noretry,
	})
	if err != nil {
		fatal(err)
	}
	w, done := h.OutWriter()
	rep.Render(w)
	done()
	if !rep.InvariantsHeld() {
		os.Exit(1)
	}
}

// dashCmd implements `pcsictl dash`: run one experiment under the
// telemetry plane and render the self-contained HTML dashboard plus the
// machine-readable JSON timeline. Both outputs are byte-identical for
// identical (experiment, seed).
func dashCmd(args []string) {
	h := newHarnessFlags("dash",
		"simulation seed", "write the HTML dashboard to this file (default stdout)", 0,
		"usage: pcsictl dash <experiment> [-seed N] [-o file.html] [-faultrate R] [-json file]")
	jsonOut := h.FS.String("json", "", "write the JSON timeline to this file (default: -o with a .json extension)")
	exp := h.RequireExp(args)
	defer h.ActivateFaults()()
	rep, tl, err := experiments.RunDash(exp, *h.Seed)
	if err != nil {
		fatal(err)
	}
	// The experiment's own report goes to stderr so stdout stays pure HTML.
	rep.Render(os.Stderr)
	w, done := h.OutWriter()
	if err := tl.WriteHTML(w); err != nil {
		fatal(err)
	}
	done()
	jp := *jsonOut
	if jp == "" && *h.Out != "" {
		jp = strings.TrimSuffix(*h.Out, filepath.Ext(*h.Out)) + ".json"
	}
	if jp != "" {
		jf, err := os.Create(jp)
		if err != nil {
			fatal(err)
		}
		if err := tl.WriteJSON(jf); err != nil {
			fatal(err)
		}
		jf.Close() //nolint:errcheck
	}
	if *h.Out != "" {
		fmt.Fprintf(os.Stderr, "dashboard written to %s (timeline: %s)\n", *h.Out, jp)
	}
}

// verifyTrace checks that a file is well-formed Chrome trace JSON with a
// non-empty traceEvents array (the CI smoke gate).
func verifyTrace(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var f struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return fmt.Errorf("%s: not valid trace JSON: %w", path, err)
	}
	if len(f.TraceEvents) == 0 {
		return fmt.Errorf("%s: traceEvents is empty", path)
	}
	return nil
}
