package main

import (
	"net"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/pcsinet"
	"repro/internal/wire"
)

// protocolOps returns the value of every Op* constant in pcsinet's
// protocol.go, read from the source (the package keeps its op table
// unexported).
func protocolOps(t *testing.T) []string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "internal", "pcsinet", "protocol.go"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, m := range regexp.MustCompile(`(?m)^\s*Op\w+\s*=\s*"(\w+)"`).FindAllSubmatch(src, -1) {
		out = append(out, string(m[1]))
	}
	sort.Strings(out)
	return out
}

// recorder is a stand-in daemon that answers every request OK and
// remembers the ops it was sent.
type recorder struct {
	ln  net.Listener
	mu  sync.Mutex
	ops []string
}

func (r *recorder) seen() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.ops...)
}

func (r *recorder) serve() {
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			return
		}
		go func() {
			defer conn.Close()
			for {
				req, err := pcsinet.ReadFrame(conn)
				if err != nil {
					return
				}
				r.mu.Lock()
				r.ops = append(r.ops, req.Op)
				r.mu.Unlock()
				if pcsinet.WriteFrame(conn, &wire.Message{Status: pcsinet.StatusOK}) != nil {
					return
				}
			}
		}()
	}
}

// TestVerbsCoverTheProtocol runs every verb with exactly its required
// arguments against a recording daemon: min must equal the number of
// <required> arguments in the synopsis, each verb must send one protocol
// op, and between them the verbs must send every op the protocol has.
func TestVerbsCoverTheProtocol(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	rec := &recorder{ln: ln}
	go rec.serve()
	cl, err := pcsinet.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// The verbs print what the daemon returns; keep the test log clean.
	stdout := os.Stdout
	if os.Stdout, err = os.Open(os.DevNull); err != nil {
		t.Fatal(err)
	}
	defer func() { os.Stdout = stdout }()

	known := map[string]bool{}
	for _, op := range protocolOps(t) {
		known[op] = false
	}
	for _, v := range verbs {
		if want := strings.Count(v.args, "<"); v.min != want {
			t.Errorf("%s: min %d, but the synopsis %q has %d required arguments", v.name, v.min, v.args, want)
		}
		sent := len(rec.seen())
		if err := v.run(cl, make([]string, v.min)); err != nil {
			t.Errorf("%s: %v", v.name, err)
		}
		if got := rec.seen()[sent:]; len(got) != 1 {
			t.Errorf("%s sent %v, want one op", v.name, got)
		} else if _, ok := known[got[0]]; !ok {
			t.Errorf("%s sent %q, which protocol.go does not declare", v.name, got[0])
		} else {
			known[got[0]] = true
		}
	}
	for op, covered := range known {
		if !covered {
			t.Errorf("protocol op %q has no pcsictl verb", op)
		}
	}
}

// TestReadmeCommandTable asserts README.md embeds exactly what `pcsictl`
// prints with no arguments (between the BEGIN/END PCSICTL USAGE markers).
func TestReadmeCommandTable(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	const begin, end = "<!-- BEGIN PCSICTL USAGE -->\n```\n", "```\n<!-- END PCSICTL USAGE -->"
	s := string(data)
	i, j := strings.Index(s, begin), strings.Index(s, end)
	if i < 0 || j < i {
		t.Fatal("README.md is missing the PCSICTL USAGE markers")
	}
	if got, want := s[i+len(begin):j], usageText(); got != want {
		t.Errorf("README command table drifted from the verb table; regenerate with `go run ./cmd/pcsictl`:\n%s", want)
	}
}
