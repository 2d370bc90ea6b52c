package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// quickCfg seeds testing/quick explicitly so property runs are reproducible.
func quickCfg(seed int64) *quick.Config {
	return &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(seed))}
}

// backoffFrom maps raw generator bytes onto a Backoff across the interesting
// parameter space: zero values (defaults), caps below the base, growth
// factors in [1, 4.9], jitter in [0, 1].
func backoffFrom(base, capv uint16, factorQ, jitterQ uint8) Backoff {
	return Backoff{
		Base:       sim.Duration(base) * time.Microsecond,
		Cap:        sim.Duration(capv) * time.Microsecond,
		Factor:     1 + float64(factorQ%40)/10,
		JitterFrac: float64(jitterQ%11) / 10,
	}
}

// Property: the nominal backoff curve is monotone non-decreasing and never
// exceeds the cap.
func TestBackoffNominalMonotoneCapped(t *testing.T) {
	f := func(base, capv uint16, factorQ, retries uint8) bool {
		b := backoffFrom(base, capv, factorQ, 0)
		n := int(retries%20) + 2
		prev := sim.Duration(-1)
		for i := 0; i < n; i++ {
			d := b.Nominal(i)
			if d < prev {
				return false
			}
			if b.Cap > 0 && d > b.Cap {
				return false
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(f, quickCfg(1)); err != nil {
		t.Fatal(err)
	}
}

// Property: jittered delays stay within ±JitterFrac of the nominal delay
// (and are never negative).
func TestBackoffJitterBounded(t *testing.T) {
	f := func(base, capv uint16, factorQ, jitterQ uint8, seed int64, retry uint8) bool {
		b := backoffFrom(base, capv, factorQ, jitterQ)
		rng := rand.New(rand.NewSource(seed))
		r := int(retry % 30)
		nom := float64(b.Nominal(r))
		d := float64(b.Delay(r, rng))
		j := b.JitterFrac
		const eps = 2 // float→duration rounding slack
		return d >= 0 && d >= nom*(1-j)-eps && d <= nom*(1+j)+eps
	}
	if err := quick.Check(f, quickCfg(2)); err != nil {
		t.Fatal(err)
	}
}

// Property: identical rng seeds yield identical delay sequences — the
// determinism contract retries depend on.
func TestBackoffDelayDeterministic(t *testing.T) {
	f := func(base, capv uint16, factorQ, jitterQ uint8, seed int64) bool {
		b := backoffFrom(base, capv, factorQ, jitterQ)
		r1 := rand.New(rand.NewSource(seed))
		r2 := rand.New(rand.NewSource(seed))
		for i := 0; i < 12; i++ {
			if b.Delay(i, r1) != b.Delay(i, r2) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(3)); err != nil {
		t.Fatal(err)
	}
}

// Zero jitter (or a nil rng) degrades Delay to exactly Nominal.
func TestBackoffNoJitterIsNominal(t *testing.T) {
	b := Backoff{Base: time.Millisecond, Cap: 100 * time.Millisecond, Factor: 2}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 10; i++ {
		if b.Delay(i, rng) != b.Nominal(i) {
			t.Fatalf("retry %d: Delay != Nominal with zero jitter", i)
		}
	}
	jb := Backoff{Base: time.Millisecond, Factor: 2, JitterFrac: 0.5}
	for i := 0; i < 10; i++ {
		if jb.Delay(i, nil) != jb.Nominal(i) {
			t.Fatalf("retry %d: Delay != Nominal with nil rng", i)
		}
	}
}

// The deadline is enforced before sleeping: virtual time never runs past it
// and the error names it.
func TestPolicyDeadlineEnforced(t *testing.T) {
	const deadline = 50 * time.Millisecond
	env := sim.NewEnv(7)
	p := (&Policy{
		MaxAttempts: 1000,
		Deadline:    deadline,
		Backoff:     Backoff{Base: time.Millisecond, Factor: 2, JitterFrac: 0.5},
	}).Bind(env)
	attempts := 0
	var err error
	env.Go("retry", func(proc *sim.Proc) {
		err = p.Do(proc, "op", func() error {
			attempts++
			return ErrInjected
		})
	})
	end := env.Run()
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("err = %v, want deadline exhaustion", err)
	}
	if !errors.Is(err, ErrInjected) {
		t.Errorf("deadline error does not wrap the last attempt error: %v", err)
	}
	if got := end.Sub(sim.Time(0)); got > deadline {
		t.Errorf("virtual time %v ran past the %v deadline", got, deadline)
	}
	if attempts < 2 {
		t.Errorf("attempts = %d, want several before the deadline", attempts)
	}
}

// MaxAttempts bounds the retry count exactly, and the terminal error wraps
// the last failure.
func TestPolicyMaxAttempts(t *testing.T) {
	env := sim.NewEnv(1)
	p := (&Policy{MaxAttempts: 5, Backoff: Backoff{Base: time.Microsecond}}).Bind(env)
	attempts := 0
	var err error
	env.Go("retry", func(proc *sim.Proc) {
		err = p.Do(proc, "op", func() error {
			attempts++
			return ErrInjectedTimeout
		})
	})
	env.Run()
	if attempts != 5 {
		t.Errorf("attempts = %d, want 5", attempts)
	}
	if err == nil || !strings.Contains(err.Error(), "after 5 attempts") {
		t.Errorf("err = %v, want attempt-count wrap", err)
	}
	if !errors.Is(err, ErrInjectedTimeout) {
		t.Errorf("terminal error does not wrap the cause: %v", err)
	}
}

// Fatal (non-retryable) errors return immediately, untouched.
func TestPolicyFatalErrorNoRetry(t *testing.T) {
	sentinel := errors.New("capability denied")
	env := sim.NewEnv(1)
	p := DefaultPolicy().Bind(env)
	attempts := 0
	var err error
	env.Go("retry", func(proc *sim.Proc) {
		err = p.Do(proc, "op", func() error {
			attempts++
			return sentinel
		})
	})
	env.Run()
	if attempts != 1 {
		t.Errorf("attempts = %d, want 1 for a fatal error", attempts)
	}
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want the sentinel unchanged", err)
	}
}

// A nil policy is the no-op fast path: fn runs exactly once.
func TestNilPolicyRunsOnce(t *testing.T) {
	var p *Policy
	attempts := 0
	if err := p.Do(nil, "op", func() error {
		attempts++
		return ErrInjected
	}); !errors.Is(err, ErrInjected) {
		t.Errorf("err = %v", err)
	}
	if attempts != 1 {
		t.Errorf("attempts = %d, want 1", attempts)
	}
}

// Bound policies with the same env seed replay byte-identical retry timing;
// the template itself stays rng-free.
func TestPolicyBindDeterministic(t *testing.T) {
	run := func() []sim.Duration {
		env := sim.NewEnv(11)
		p := DefaultPolicy()
		var delays []sim.Duration
		p.OnAttempt = func(op string, attempt int, err error, delay sim.Duration) {
			delays = append(delays, delay)
		}
		q := p.Bind(env)
		env.Go("retry", func(proc *sim.Proc) {
			q.Do(proc, "op", func() error { return ErrInjected }) //nolint:errcheck
		})
		env.Run()
		return delays
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no retries recorded")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delay %d differs across identical seeds: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRetryableClassification(t *testing.T) {
	for _, err := range []error{
		ErrInjected,
		ErrInjectedTimeout,
		cluster.ErrNodeDown,
		cluster.ErrNoCapacity,
		// Wrapped transients stay retryable.
		errors.Join(errors.New("ctx"), cluster.ErrNodeDown),
	} {
		if !Retryable(err) {
			t.Errorf("Retryable(%v) = false, want true", err)
		}
	}
	for _, err := range []error{nil, errors.New("no such object")} {
		if Retryable(err) {
			t.Errorf("Retryable(%v) = true, want false", err)
		}
	}
}

// classifiedWrapper carries its own classification over a cause with
// another one: the outer one is the first in the chain.
type classifiedWrapper struct {
	retry bool
	err   error
}

func (e classifiedWrapper) Error() string   { return "wrapped: " + e.err.Error() }
func (e classifiedWrapper) Unwrap() error   { return e.err }
func (e classifiedWrapper) Retryable() bool { return e.retry }

// retryableCases covers every shape of chain Retryable walks.
var retryableCases = []error{
	nil,
	errors.New("no such object"),
	Fatal("denied"),
	Transient("busy"),
	ErrInjected,
	fmt.Errorf("put: %w", Transient("busy")),
	fmt.Errorf("put: %w", fmt.Errorf("replica 2: %w", Fatal("denied"))),
	fmt.Errorf("put: %w", errors.New("plain")),
	fmt.Errorf("put: %w", nil),
	fmt.Errorf("%w and %w", errors.New("plain"), Transient("busy")),
	fmt.Errorf("%w and %w", Fatal("denied"), Transient("busy")),
	errors.Join(errors.New("ctx"), cluster.ErrNodeDown),
	errors.Join(Transient("busy"), Fatal("denied")),
	errors.Join(errors.New("a"), errors.New("b")),
	fmt.Errorf("outer: %w", errors.Join(errors.New("ctx"), fmt.Errorf("inner: %w", Transient("busy")))),
	errors.Join(errors.Join(errors.New("a")), Fatal("denied"), Transient("busy")),
	gaveUp{op: "core.put", attempts: 4, err: Transient("busy")},
	gaveUp{op: "core.put", attempts: 4, err: Fatal("denied")},
	gaveUp{op: "core.put", deadline: time.Second, attempts: 2, err: errors.Join(errors.New("ctx"), ErrInjectedTimeout)},
	gaveUp{op: "core.put", attempts: 1, err: errors.New("plain")},
	classifiedWrapper{retry: false, err: Transient("busy")},
	fmt.Errorf("put: %w", classifiedWrapper{retry: true, err: Fatal("denied")}),
}

// TestRetryableMatchesErrorsAs: Retryable answers what errors.As with a
// Classified target answered, on every case.
func TestRetryableMatchesErrorsAs(t *testing.T) {
	for _, err := range retryableCases {
		var c Classified
		want := errors.As(err, &c) && c.Retryable()
		if got := Retryable(err); got != want {
			t.Errorf("Retryable(%v) = %v, errors.As says %v", err, got, want)
		}
	}
}

// TestRetryableAllocatesNothing: classifying an error is on every retry's
// path, so it must not allocate.
func TestRetryableAllocatesNothing(t *testing.T) {
	for _, err := range retryableCases {
		if n := testing.AllocsPerRun(100, func() { Retryable(err) }); n != 0 {
			t.Errorf("Retryable(%v) allocates %v times", err, n)
		}
	}
}

// TestGaveUpReadsAsErrorfDid pins Do's two give-up errors byte for byte
// against the fmt.Errorf text they replace, and their chains against its:
// errors.Is, Unwrap and Retryable answer as they did.
func TestGaveUpReadsAsErrorfDid(t *testing.T) {
	for _, cause := range []error{
		ErrInjected,
		Transient("store: busy"),
		fmt.Errorf("replica 2: %w", ErrInjectedTimeout),
		errors.Join(errors.New("ctx"), cluster.ErrNodeDown),
		Fatal("no such object"),
	} {
		for _, c := range []struct {
			name      string
			got, want error
		}{
			{"attempts", gaveUp{op: "core.put", attempts: 4, err: cause},
				fmt.Errorf("fault: %s failed after %d attempts: %w", "core.put", 4, cause)},
			{"deadline", gaveUp{op: "faas.invoke", deadline: 2 * time.Second, attempts: 3, err: cause},
				fmt.Errorf("fault: %s retry deadline %v exhausted after %d attempts: %w", "faas.invoke", 2*time.Second, 3, cause)},
		} {
			if got, want := c.got.Error(), c.want.Error(); got != want {
				t.Errorf("%s over %q:\n got %q\nwant %q", c.name, cause, got, want)
			}
			if errors.Unwrap(c.got) != cause || !errors.Is(c.got, cause) {
				t.Errorf("%s over %q: the cause is not in the chain", c.name, cause)
			}
			if Retryable(c.got) != Retryable(c.want) {
				t.Errorf("%s over %q: Retryable = %v, fmt.Errorf's was %v", c.name, cause, Retryable(c.got), Retryable(c.want))
			}
		}
	}
}
