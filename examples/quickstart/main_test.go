package main

// Example runs the program and pins its whole report: the simulation is
// deterministic, so any change to what it prints fails here.
func Example() {
	main()
	// Output:
	// write through read-only ref refused: core: capability: required right not held: need write, have read
	// read via namespace: "PCSI: a portable cloud system interface"
	// function produced: 39 bytes: "PCSI: a portable clo"...
	// invocation took 2.096489ms of virtual time (incl. one cold start)
	// total virtual time: 7.221686ms; bytes moved over the fabric: 65684
}
