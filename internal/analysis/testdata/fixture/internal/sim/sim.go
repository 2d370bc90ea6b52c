// Package sim is a miniature stand-in for the real simulation substrate.
package sim

import (
	"errors"
	"math/rand"
)

// ErrTimeout is unclassified and sits inside a retry boundary's import
// closure, but sim is a substrate below fault, where errclass does not
// look: a substrate error that should be retried implements
// fault.Classified with a local type. No errclass finding.
var ErrTimeout = errors.New("sim: timeout")

// Env is a virtual-time environment stub carrying a seeded random stream.
type Env struct {
	rng *rand.Rand
}

// NewEnv returns an Env whose stream is seeded with seed.
func NewEnv(seed int64) *Env {
	return &Env{rng: rand.New(rand.NewSource(seed))}
}

// Rand returns the deterministic stream.
func (e *Env) Rand() *rand.Rand { return e.rng }

// ForkRand derives a labeled workload stream (stub).
func (e *Env) ForkRand(label string) *rand.Rand {
	return rand.New(rand.NewSource(int64(len(label))))
}

// ObserverRand derives a labeled observer stream (stub). Only the
// observer-domain packages may call it; the obsrand analyzer enforces that.
func (e *Env) ObserverRand(label string) *rand.Rand {
	return rand.New(rand.NewSource(int64(len(label)) + 1))
}

// Proc is a stub simulated process.
type Proc struct {
	env *Env
}

// Sleep advances virtual time (stub). It is an order-sensitive scheduling
// effect for the maprange analyzer.
func (p *Proc) Sleep(d int64) {}

// Go launches a stub process synchronously.
func (e *Env) Go(name string, fn func(*Proc)) { fn(&Proc{env: e}) }
