package fault

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/sim"
)

// Backoff is a capped exponential backoff: the nominal delay doubles on
// every retry, and a bound policy's delay varies by ±50% around it
// (deterministic jitter).
type Backoff struct {
	Base sim.Duration // first delay; default 1ms
	Cap  sim.Duration // ceiling on the nominal delay; 0 = uncapped
}

// jitterFrac bounds a bound policy's delay to [d/2, 3d/2] around the
// nominal delay d.
const jitterFrac = 0.5

// Nominal returns the un-jittered delay before the retry-th retry
// (0-indexed): min(Base * 2^retry, Cap). Monotone non-decreasing.
func (b Backoff) Nominal(retry int) sim.Duration {
	base := b.Base
	if base <= 0 {
		base = time.Millisecond
	}
	if retry < 0 {
		retry = 0
	}
	d := float64(base) * math.Pow(2, float64(retry))
	if b.Cap > 0 && d > float64(b.Cap) {
		d = float64(b.Cap)
	}
	if d > float64(math.MaxInt64)/2 {
		d = float64(math.MaxInt64) / 2
	}
	return sim.Duration(d)
}

// Delay returns the jittered delay before the retry-th retry, drawing from
// rng (an observer stream, so jitter never perturbs the workload); a nil
// rng gives the nominal delay.
func (b Backoff) Delay(retry int, rng *rand.Rand) sim.Duration {
	d := float64(b.Nominal(retry))
	if rng != nil {
		d *= 1 + jitterFrac*(2*rng.Float64()-1)
	}
	return sim.Duration(d)
}

// Policy is a retry policy: attempts are re-run for retryable errors with
// backoff until MaxAttempts or the total Deadline is exhausted. A Policy
// value without an rng is a template; Bind derives a per-env copy whose
// jitter comes from the env's observer stream.
type Policy struct {
	MaxAttempts int          // total tries including the first; default 3
	Deadline    sim.Duration // budget across all attempts; 0 = unlimited
	Backoff     Backoff
	// Retryable classifies errors; nil means Retryable, which asks the
	// error itself.
	Retryable func(error) bool
	// OnAttempt runs before each backoff sleep, after attempt `attempt`
	// (1-based) failed with err and the next try is delay away.
	OnAttempt func(op string, attempt int, err error, delay sim.Duration)

	rng *rand.Rand
}

// DefaultPolicy is the stock chaos-mode policy: 4 attempts, 2s budget,
// 1ms→200ms exponential backoff with ±50% jitter.
func DefaultPolicy() *Policy {
	return &Policy{
		MaxAttempts: 4,
		Deadline:    2 * time.Second,
		Backoff:     Backoff{Base: time.Millisecond, Cap: 200 * time.Millisecond},
	}
}

// Bind returns a copy of p whose jitter draws from env's observer stream.
func (p *Policy) Bind(env *sim.Env) *Policy {
	if p == nil {
		return nil
	}
	q := *p
	q.rng = env.ObserverRand("fault.retry")
	return &q
}

// Do runs fn, retrying per the policy. A nil policy runs fn exactly once
// with zero overhead. The deadline is enforced before sleeping: no backoff
// sleep may carry the elapsed total past Deadline.
func (p *Policy) Do(proc *sim.Proc, op string, fn func() error) error {
	if p == nil {
		return fn()
	}
	max := p.MaxAttempts
	if max <= 0 {
		max = 3
	}
	retryable := p.Retryable
	if retryable == nil {
		retryable = Retryable
	}
	start := proc.Now()
	for attempt := 1; ; attempt++ {
		err := fn()
		if err == nil {
			return nil
		}
		if !retryable(err) {
			return err
		}
		if attempt >= max {
			return gaveUp{op: op, attempts: attempt, err: err}
		}
		delay := p.Backoff.Delay(attempt-1, p.rng)
		if p.Deadline > 0 && proc.Now().Sub(start)+delay > p.Deadline {
			return gaveUp{op: op, deadline: p.Deadline, attempts: attempt, err: err}
		}
		if p.OnAttempt != nil {
			p.OnAttempt(op, attempt, err, delay)
		}
		proc.Sleep(delay)
	}
}

// gaveUp is Do's error once it stops retrying: out of attempts, or (with a
// deadline) out of time. Exhausted invocations are common under chaos and
// their errors are mostly dropped, so the message is formatted only when
// asked for.
type gaveUp struct {
	op       string
	deadline sim.Duration // 0: the attempts ran out
	attempts int
	err      error
}

func (e gaveUp) Error() string {
	if e.deadline > 0 {
		return fmt.Sprintf("fault: %s retry deadline %v exhausted after %d attempts: %v",
			e.op, e.deadline, e.attempts, e.err)
	}
	return fmt.Sprintf("fault: %s failed after %d attempts: %v", e.op, e.attempts, e.err)
}

func (e gaveUp) Unwrap() error { return e.err }

// Classified is implemented by every error that carries a retry
// classification, and it is the only place a retry decision is made:
// Fatal and Transient sentinels, typed rejections from higher layers
// (e.g. QoS overload sheds, which say "do not retry" because retrying
// re-offers the load the system just refused), and the substrates' own
// transients, which cannot import this package and so declare a local
// type with the same method.
type Classified interface {
	Retryable() bool
}

// classed is a comparable classified sentinel: errors.Is matches it by
// value through any fmt.Errorf("%w") wrapping, and Retryable answers the
// classifier directly.
type classed struct {
	msg   string
	retry bool
}

func (e classed) Error() string   { return e.msg }
func (e classed) Retryable() bool { return e.retry }

// Fatal returns an error sentinel classified as non-retryable: retry
// policies return it to the caller on first sight. Use it for answers —
// not-found, invalid arguments, capability denials — where retrying
// re-asks a question the system already answered.
func Fatal(msg string) error { return classed{msg: msg} }

// Transient returns an error sentinel classified as retryable: retry
// policies back off and re-run the attempt. Use it for conditions that
// clear on their own — pressure, races, windows mid-reconfiguration.
func Transient(msg string) error { return classed{msg: msg, retry: true} }

// Fatalf is Fatal with fmt.Sprintf formatting, for dynamic error text
// that must still carry a non-retryable classification. When the
// arguments include an error to preserve, prefer fmt.Errorf("...: %w",
// err) around a classified sentinel instead — Fatalf flattens the chain.
func Fatalf(format string, args ...any) error {
	return classed{msg: fmt.Sprintf(format, args...)}
}

// Retryable is the one retry classifier: err is retryable exactly when
// the first Classified error in its chain says so, the one errors.As would
// find. Unclassified errors (and nil) are fatal.
func Retryable(err error) bool {
	c, ok := classifier(err)
	return ok && c.Retryable()
}

// classifier walks err's tree in errors.As order (depth first, each
// joined error in turn) with type assertions, so it allocates nothing.
func classifier(err error) (Classified, bool) {
	for err != nil {
		if c, ok := err.(Classified); ok {
			return c, true
		}
		switch u := err.(type) {
		case interface{ Unwrap() error }:
			err = u.Unwrap()
		case interface{ Unwrap() []error }:
			for _, e := range u.Unwrap() {
				if c, ok := classifier(e); ok {
					return c, true
				}
			}
			return nil, false
		default:
			return nil, false
		}
	}
	return nil, false
}
