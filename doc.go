// Package repro is a reference implementation of the Portable Cloud
// System Interface (PCSI) from "The RESTless Cloud" (Pemberton,
// Schleier-Smith, Gonzalez — HotOS '21), together with the baselines the
// paper argues against and a harness that regenerates every quantitative
// artifact in the paper.
//
// The public API lives in package repro/pcsi. A real TCP daemon and its CLI
// are cmd/pcsid and cmd/pcsictl; the experiment harness is `pcsictl run`.
// See README.md, DESIGN.md, and EXPERIMENTS.md.
package repro
