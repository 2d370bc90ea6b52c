package core

import (
	"strings"
	"testing"

	"repro/internal/consistency"
	"repro/internal/fault"
	"repro/internal/object"
	"repro/internal/platform"
	"repro/internal/qos"
	"repro/internal/sim"
	"repro/internal/trace"
)

// verbDriver is what the table test needs to exercise one row: the kind of
// object the verb acts on, how to put that object in a state where the verb
// succeeds, and the call itself.
type verbDriver struct {
	kind  object.Kind
	prime func(cl *Client, p *sim.Proc, r Ref) error
	call  func(cl *Client, p *sim.Proc, r Ref) error
	// local: the verb also works on a WithEphemeral object. Directory verbs
	// go to the metadata replica and Invoke to the runtime, so they do not;
	// Create has no object yet.
	local bool
}

var verbDrivers = map[*verb]verbDriver{
	verbCreate: {call: func(cl *Client, p *sim.Proc, _ Ref) error {
		_, err := cl.Create(p, object.Regular)
		return err
	}},
	verbPut: {local: true, call: func(cl *Client, p *sim.Proc, r Ref) error { return cl.Put(p, r, []byte("v")) }},
	verbGet: {local: true, call: func(cl *Client, p *sim.Proc, r Ref) error { _, err := cl.Get(p, r); return err }},
	verbGetAt: {local: true, call: func(cl *Client, p *sim.Proc, r Ref) error {
		_, err := cl.GetAt(p, r, consistency.Eventual)
		return err
	}},
	verbAppend:  {local: true, call: func(cl *Client, p *sim.Proc, r Ref) error { return cl.Append(p, r, []byte("v")) }},
	verbWriteAt: {local: true, call: func(cl *Client, p *sim.Proc, r Ref) error { return cl.WriteAt(p, r, []byte("v"), 0) }},
	verbReadAt:  {local: true, call: func(cl *Client, p *sim.Proc, r Ref) error { _, err := cl.ReadAt(p, r, 0, 1); return err }},
	verbFreeze: {local: true, call: func(cl *Client, p *sim.Proc, r Ref) error {
		return cl.Freeze(p, r, object.AppendOnly)
	}},
	verbMutability: {local: true, call: func(cl *Client, p *sim.Proc, r Ref) error { _, err := cl.Mutability(p, r); return err }},
	verbPush:       {kind: object.FIFO, local: true, call: func(cl *Client, p *sim.Proc, r Ref) error { return cl.Push(p, r, []byte("m")) }},
	verbPop: {kind: object.FIFO, local: true,
		prime: func(cl *Client, p *sim.Proc, r Ref) error { return cl.Push(p, r, []byte("m")) },
		call:  func(cl *Client, p *sim.Proc, r Ref) error { _, err := cl.Pop(p, r); return err }},
	verbStat: {local: true, call: func(cl *Client, p *sim.Proc, r Ref) error { _, err := cl.Stat(p, r); return err }},
	verbGetVersioned: {local: true, call: func(cl *Client, p *sim.Proc, r Ref) error {
		_, _, err := cl.GetVersioned(p, r)
		return err
	}},
	verbReadDir: {kind: object.Directory, call: func(cl *Client, p *sim.Proc, r Ref) error {
		_, _, err := cl.ReadDir(p, r)
		return err
	}},
	verbSetDirEntries: {kind: object.Directory, call: func(cl *Client, p *sim.Proc, r Ref) error {
		return cl.SetDirEntries(p, r, nil)
	}},
	verbSockSend: {kind: object.Socket, local: true, call: func(cl *Client, p *sim.Proc, r Ref) error {
		return cl.SockSend(p, r, ClientEnd, []byte("m"))
	}},
	verbSockRecv: {kind: object.Socket, local: true,
		prime: func(cl *Client, p *sim.Proc, r Ref) error { return cl.SockSend(p, r, ClientEnd, []byte("m")) },
		call:  func(cl *Client, p *sim.Proc, r Ref) error { _, err := cl.SockRecv(p, r, ServerEnd); return err }},
	verbSockClose: {kind: object.Socket, local: true, call: func(cl *Client, p *sim.Proc, r Ref) error { return cl.SockClose(p, r) }},
	verbInvoke: {call: func(cl *Client, p *sim.Proc, r Ref) error {
		_, err := cl.Invoke(p, r, InvokeArgs{})
		return err
	}},
}

// entryDrivers are Client methods that run an existing row instead of one of
// their own; each must pass that row's hooks and fault subtests exactly as
// the row's own driver does.
var entryDrivers = []struct {
	name string
	v    *verb
	d    verbDriver
}{
	{"put_shared", verbPut, verbDriver{local: true, call: func(cl *Client, p *sim.Proc, r Ref) error {
		return cl.PutShared(p, r, []byte("v"))
	}}},
	{"view", verbGet, verbDriver{local: true, call: func(cl *Client, p *sim.Proc, r Ref) error {
		_, err := cl.View(p, r)
		return err
	}}},
	{"view_at", verbGetAt, verbDriver{local: true, call: func(cl *Client, p *sim.Proc, r Ref) error {
		_, err := cl.ViewAt(p, r, consistency.Eventual)
		return err
	}}},
}

// subject builds the object (or function) a row's driver acts on.
func (d verbDriver) subject(v *verb, cl *Client, p *sim.Proc, opts ...CreateOpt) (Ref, error) {
	if v == verbInvoke {
		return cl.RegisterFunction(p, FnConfig{Name: "noop", Kind: platform.Wasm, Handler: func(*FnCtx) error { return nil }})
	}
	r, err := cl.Create(p, d.kind, opts...)
	if err == nil && d.prime != nil {
		err = d.prime(cl, p, r)
	}
	return r, err
}

// verbExceptions pins every departure from the default row (all hooks on,
// fault op "core.<name>"), so flipping a flag is a deliberate edit here too.
// A new row with no exceptions needs no entry.
var verbExceptions = map[string]string{
	"create":        "noRef",
	"put":           "write",
	"append":        "write",
	"write_at":      "write",
	"freeze":        "write",
	"mutability":    "fault= noAdmit",
	"pop":           "noAdmit noRetry",
	"get_versioned": "fault=core.get",
	"set_entries":   "fault=core.setdir",
	"sock_send":     "fault= noAdmit noSpan",
	"sock_recv":     "fault= noAdmit noSpan",
	"sock_close":    "fault= noAdmit noSpan",
	"invoke":        "noAdmit",
}

func (v *verb) exceptions() string {
	var out []string
	if v.fault != "core."+v.name {
		out = append(out, "fault="+v.fault)
	}
	for _, f := range []struct {
		on   bool
		name string
	}{{v.write, "write"}, {v.noRef, "noRef"}, {v.noAdmit, "noAdmit"}, {v.noSpan, "noSpan"}, {v.noRetry, "noRetry"}} {
		if f.on {
			out = append(out, f.name)
		}
	}
	return strings.Join(out, " ")
}

// TestVerbTable ranges over the verb table itself, so a new row is covered
// without editing the assertions (it only needs a driver), and a verb that
// stops going through run — or a row whose flags change — fails here.
func TestVerbTable(t *testing.T) {
	seen := make(map[string]bool)
	for _, v := range verbs {
		if v.name == "" || seen[v.name] || (v.cat == "") != v.noSpan {
			t.Errorf("malformed or duplicate row %+v", *v)
		}
		seen[v.name] = true
		if got := v.exceptions(); got != verbExceptions[v.name] {
			t.Errorf("verb %q exceptions = %q, pinned %q", v.name, got, verbExceptions[v.name])
		}
		d, ok := verbDrivers[v]
		if !ok {
			t.Errorf("verb %q has no driver in verbDrivers", v.name)
			continue
		}
		t.Run(v.name+"/hooks", func(t *testing.T) { testVerbHooks(t, v, d) })
		t.Run(v.name+"/faults", func(t *testing.T) { testVerbFaults(t, v, d) })
	}
	for _, e := range entryDrivers {
		t.Run(e.name+"/hooks", func(t *testing.T) { testVerbHooks(t, e.v, e.d) })
		t.Run(e.name+"/faults", func(t *testing.T) { testVerbFaults(t, e.v, e.d) })
	}
}

// testVerbHooks checks the front half of the pipeline: refusal before any
// cost, one admission, one span under the caller's.
func testVerbHooks(t *testing.T, v *verb, d verbDriver) {
	col := trace.NewCollector()
	opts := DefaultOptions()
	opts.Trace = col
	opts.QoS = &qos.Config{Data: qos.ClassConfig{MaxConcurrency: 4}}
	c := New(opts)
	cl := c.NewClient(0)
	admitted := func() int64 { return c.QoS().ClassStats(qos.ClassData).Admitted }
	var caller *trace.Span
	run(t, c, func(p *sim.Proc) {
		r, err := d.subject(v, cl, p)
		if err != nil {
			t.Error(err)
			return
		}
		if !v.noRef {
			weak, err := cl.Attenuate(r, r.cap.Rights()&^v.need)
			if err != nil {
				t.Error(err)
				return
			}
			at, adm := p.Now(), admitted()
			if err := d.call(cl, p, weak); err == nil {
				t.Errorf("reference lacking %v was accepted", v.need)
			}
			if p.Now() != at || admitted() != adm {
				t.Errorf("refusal cost %v of virtual time and %d admissions; want none", p.Now().Sub(at), admitted()-adm)
			}
		}
		adm := admitted()
		caller = trace.Of(c.Env()).Start(p, "test", "caller")
		err = d.call(cl, p, r)
		caller.Close(p)
		if err != nil {
			t.Error(err)
		}
		if got := admitted() - adm; (got == 1) == v.noAdmit || got > 1 {
			t.Errorf("data admissions = %d with noAdmit = %v", got, v.noAdmit)
		}
	})
	var got []string
	for _, run := range col.Data().Runs {
		for _, s := range run.Spans {
			if caller != nil && s.Parent == caller.ID && strings.HasPrefix(s.Cat, "core.") {
				got = append(got, s.Cat+"/"+s.Name)
			}
		}
	}
	want := []string{v.cat + "/" + v.name}
	if v.noSpan {
		want = nil
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("core spans under the caller's = %v, want %v", got, want)
	}
}

// testVerbFaults checks retry(fault → store): with every roll failing, a
// replicated object sees the row's fault op once per attempt and the policy
// retries it; a node-local object sees neither.
func testVerbFaults(t *testing.T, v *verb, d verbDriver) {
	const attempts = 3
	opts := DefaultOptions()
	opts.Retry = &fault.Policy{MaxAttempts: attempts}
	c := New(opts)
	cl := c.NewClient(0)
	run(t, c, func(p *sim.Proc) {
		r, err := d.subject(v, cl, p)
		var local Ref
		if err == nil && d.local {
			local, err = d.subject(v, cl, p, WithEphemeral())
		}
		if err != nil {
			t.Error(err)
			return
		}
		// Arm the injector only now, so building the subjects is not faulted.
		c.inj = fault.NewSession(fault.Spec{Rate: 1}).Attach(c.env)
		var rolled []string
		c.inj.Observe(func(n fault.Notice) { rolled = append(rolled, n.Kind+" "+n.Detail) })

		wantRolls, wantRetries := attempts, int64(attempts-1)
		if v.noRetry {
			wantRolls, wantRetries = 1, 0
		}
		if v.fault == "" {
			wantRolls, wantRetries = 0, 0
		}
		err = d.call(cl, p, r)
		if (err == nil) != (v.fault == "") || (err != nil && !strings.Contains(err.Error(), v.fault)) {
			t.Errorf("at fault rate 1: err = %v, want a failure naming %q (none when the row has no fault op)", err, v.fault)
		}
		if len(rolled) != wantRolls || (wantRolls > 0 && rolled[0] != "op.error "+v.fault) {
			t.Errorf("fault rolls = %v, want %d of %q", rolled, wantRolls, "op.error "+v.fault)
		}
		if c.RetryAttempts != wantRetries {
			t.Errorf("RetryAttempts = %d, want %d", c.RetryAttempts, wantRetries)
		}
		if !d.local {
			return
		}
		rolled, c.RetryAttempts = nil, 0
		if err := d.call(cl, p, local); err != nil || len(rolled) != 0 || c.RetryAttempts != 0 {
			t.Errorf("node-local object: err = %v, rolls = %v, retries = %d; want none", err, rolled, c.RetryAttempts)
		}
	})
}
