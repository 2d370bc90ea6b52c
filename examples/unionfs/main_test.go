package main

// Example runs the program and pins its whole report: the simulation is
// deterministic, so any change to what it prints fails here.
func Example() {
	main()
	// Output:
	// base     etc/ -> [config motd], config = "workers=4\n"
	// tenantA  etc/ -> [config motd], config = "workers=32\n"
	// tenantB  etc/ -> [config], config = "workers=4\n"
	// tenantB: etc/motd is whited out: namespace: no such path: "motd" (whiteout)
	// dropped tenant A's layer: 5 objects reclaimed (17 -> 12 objects)
	// tenant B's union still resolves after A's layer was collected
}
