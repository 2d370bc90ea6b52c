package main

// Example runs the program and pins its whole report: the simulation is
// deterministic, so any change to what it prints fails here.
func Example() {
	main()
	// Output:
	// client received "FUNCTIONS JOINED BY A FIFO" over the socket
	// pipeline took 5.786025ms of virtual time
	// receive after close: object: socket closed
	// total virtual time: 10.324899ms; bytes moved over the fabric: 131168
}
