package main

// Example runs the program and pins its whole report: the simulation is
// deterministic, so any change to what it prints fails here.
func Example() {
	main()
	// Output:
	// === network: dc2021 (RTT 200µs) ===
	// REST: 200 reads, 200 connection setups, 200 remote auth checks
	// PCSI: 200 reads through one reference, 201 local capability checks
	// REST mean:  1.79ms
	// PCSI mean:  110.4µs  (16x faster)
	// REST fixed protocol cost: 855.0µs per op (428% of the dc2021 RTT budget)
	//
	// === network: fastnet (RTT 1µs) ===
	// REST: 200 reads, 200 connection setups, 200 remote auth checks
	// PCSI: 200 reads through one reference, 201 local capability checks
	// REST mean:  860.7µs
	// PCSI mean:  1.1µs  (819x faster)
	// REST fixed protocol cost: 855.0µs per op (85500% of the fastnet RTT budget)
	//
	// the smaller the op and the faster the network, the more RESTless the cloud needs to be
}
