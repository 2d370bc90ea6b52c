package pcsinet

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/wire"
)

// protocolOps returns the value of every Op* constant declared in
// protocol.go, read from the source so a constant without a row is seen.
func protocolOps(t *testing.T) []string {
	t.Helper()
	src, err := os.ReadFile("protocol.go")
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

// rowNames returns the ops table's keys, sorted.
func rowNames() []string {
	rows := make([]string, 0, len(ops))
	for name := range ops {
		rows = append(rows, name)
	}
	sort.Strings(rows)
	return rows
}

func TestEveryOpConstantHasARow(t *testing.T) {
	consts := protocolOps(t)
	if len(consts) == 0 {
		t.Fatal("no Op* constants found in protocol.go")
	}
	rows := rowNames()
	if fmt.Sprint(consts) != fmt.Sprint(rows) {
		t.Errorf("protocol.go constants and ops rows differ:\nconstants %v\nrows      %v", consts, rows)
	}
}

// TestRowsResolveTheirKey ranges over the table: a row that names a key
// kind refuses a token of that kind the server never minted, with the
// matching error and without entering the simulator; a row that names
// none ignores Key; a local row never spawns a process.
func TestRowsResolveTheirKey(t *testing.T) {
	srv := NewServer(core.New(core.DefaultOptions()))
	env := srv.cloud.Env()
	fnTok, err := srv.RegisterFunction(core.FnConfig{Name: "nop", Handler: func(*core.FnCtx) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	mkns := srv.dispatch(&wire.Message{Op: OpMkdirNS})
	if err := RespError(mkns); err != nil {
		t.Fatal(err)
	}
	// A live token of each kind, so a local row gets as far as its body.
	live := map[keyKind]string{keyRef: mkns.Headers["root"], keyNS: mkns.Headers["token"], keyFn: fnTok}

	for _, name := range rowNames() {
		row := ops[name]
		before := env.Dispatched()
		resp := srv.dispatch(&wire.Message{Op: name, Key: "bogus"})
		if row.key == "" {
			if e := resp.Headers["error"]; strings.Contains(e, "token") {
				t.Errorf("%s: names no key but looked one up: %s", name, e)
			}
		} else {
			want := fmt.Sprintf("unknown %s token %q", row.key, "bogus")
			if resp.Status != StatusError || resp.Headers["error"] != want {
				t.Errorf("%s: forged %s token: status %d error %q, want %q", name, row.key, resp.Status, resp.Headers["error"], want)
			}
			if env.Dispatched() != before {
				t.Errorf("%s: refused request entered the simulator", name)
			}
		}
		if row.local {
			before = env.Dispatched()
			srv.dispatch(&wire.Message{Op: name, Key: live[row.key], Headers: map[string]string{"rights": "read"}})
			if env.Dispatched() != before {
				t.Errorf("%s: local row entered the simulator", name)
			}
		}
	}
}

// TestDesignOpTable asserts DESIGN.md embeds exactly the op table
// rendered from ops (between the BEGIN/END PCSINET OPS markers).
func TestDesignOpTable(t *testing.T) {
	var b strings.Builder
	b.WriteString("| op | `Key` names | runs | returns a token under |\n|---|---|---|---|\n")
	for _, name := range rowNames() {
		row := ops[name]
		key, runs, grants := string(row.key), "simulation process", row.grants
		if key == "" {
			key = "—"
		}
		if row.local {
			runs = "server tables only"
		}
		if grants == "" {
			grants = "—"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", name, key, runs, grants)
	}
	data, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	const begin, end = "<!-- BEGIN PCSINET OPS -->\n", "<!-- END PCSINET OPS -->"
	s := string(data)
	i, j := strings.Index(s, begin), strings.Index(s, end)
	if i < 0 || j < i {
		t.Fatal("DESIGN.md is missing the PCSINET OPS markers")
	}
	if got, want := s[i+len(begin):j], b.String(); got != want {
		t.Errorf("DESIGN.md op table drifted from ops; replace it with:\n%s", want)
	}
}
