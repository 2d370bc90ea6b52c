package main

// Example runs the program and pins its whole report: the simulation is
// deterministic, so any change to what it prints fails here.
func Example() {
	main()
	// Output:
	// === naive placement ===
	// placement: decode@node60 infer@node49 respond@node9
	// first request (cold starts + weights copy): 2.023323699s
	// warm mean over 9 requests: 16.761644ms
	// network bytes moved: 84158614; node-cache hits: 20
	//
	// === co-located (task-graph aware) ===
	// placement: decode@node0 infer@node0 respond@node0
	// first request (cold starts + weights copy): 2.015576921s
	// warm mean over 9 requests: 9.345265ms
	// network bytes moved: 262294; node-cache hits: 40
}
